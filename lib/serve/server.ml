(* One connection's receive state: bytes accumulate in [pending] until a
   '\n' completes a request line. *)
type client = { fd : Unix.file_descr; pending : Buffer.t }

let max_line_bytes = 1 lsl 20

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* Split the completed lines off the front of [buf], leaving the partial
   tail in place. Trailing '\r' (telnet-style clients) is stripped. *)
let drain_lines buf =
  let s = Buffer.contents buf in
  let lines = ref [] in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        let line = String.sub s !start (i - !start) in
        let line =
          if String.length line > 0 && line.[String.length line - 1] = '\r'
          then String.sub line 0 (String.length line - 1)
          else line
        in
        lines := line :: !lines;
        start := i + 1
      end)
    s;
  Buffer.clear buf;
  Buffer.add_substring buf s !start (String.length s - !start);
  List.rev !lines

let is_shutdown line = String.trim line = "shutdown"

let serve ~socket engine =
  (* A client that hangs up before its reply would otherwise raise SIGPIPE
     on the write and kill the whole process; ignored, the write fails with
     EPIPE instead and only that connection is dropped. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if Sys.file_exists socket then Unix.unlink socket;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 16;
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 8 in
  let close_client c =
    Hashtbl.remove clients c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let chunk = Bytes.create 4096 in
  let stop = ref false in
  while not !stop do
    let fds =
      listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients []
    in
    let readable, _, _ = Unix.select fds [] [] (-1.0) in
    (* Drain every readable connection before answering anything: requests
       that arrive together batch together. *)
    let requests = ref [] in
    List.iter
      (fun fd ->
        if fd = listen_fd then begin
          let conn, _ = Unix.accept listen_fd in
          Hashtbl.replace clients conn { fd = conn; pending = Buffer.create 256 }
        end
        else begin
          let c = Hashtbl.find clients fd in
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> close_client c
          | n ->
            Buffer.add_subbytes c.pending chunk 0 n;
            (* Only a read that completes a line needs the buffer split;
               a newline-less stream just appends. *)
            let lines =
              if Bytes.contains (Bytes.sub chunk 0 n) '\n' then
                drain_lines c.pending
              else []
            in
            if
              Buffer.length c.pending > max_line_bytes
              || List.exists (fun l -> String.length l > max_line_bytes) lines
            then begin
              (* An over-long line is refused outright: its sender gets one
                 error and loses the connection, so no client can grow the
                 server's memory without bound. *)
              (try
                 write_all fd
                   (Printf.sprintf "err request line exceeds %d bytes\n"
                      max_line_bytes)
               with Unix.Unix_error _ -> ());
              close_client c
            end
            else
              List.iter (fun line -> requests := (c, line) :: !requests) lines
          | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
            close_client c
        end)
      readable;
    let requests = List.rev !requests in
    if requests <> [] then begin
      let responses = Engine.exec_all engine (List.map snd requests) in
      List.iter2
        (fun (c, _) resp ->
          if Hashtbl.mem clients c.fd then begin
            try write_all c.fd (resp ^ "\n")
            with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
              close_client c
          end)
        requests responses;
      if List.exists (fun (_, line) -> is_shutdown line) requests then
        stop := true
    end
  done;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    clients;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  if Sys.file_exists socket then Unix.unlink socket
