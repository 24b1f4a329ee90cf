(* In-memory span recorder for the traced run.

   Spans wrap only calls the benchmark itself makes into the library; they
   are kept in memory and written out once, at the end, as Chrome
   trace-event JSON (the format [Echo_gpusim.Timeline.to_chrome_trace]
   emits). Untraced runs pay one branch per span. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** enclosing span, [-1] at the top *)
  req : int;  (** request / step the span belongs to *)
  start : float;
  stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let open_spans : (int * int) list ref = ref [] (* (id, req), innermost first *)
let next_id = ref 0
let now = Unix.gettimeofday
let origin = now ()

let span ?req name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, inherited =
      match !open_spans with (p, r) :: _ -> (p, r) | [] -> (-1, 0)
    in
    let req = Option.value req ~default:inherited in
    open_spans := (id, req) :: !open_spans;
    let start = now () in
    let close () =
      let stop = now () in
      open_spans := List.tl !open_spans;
      recorded := { id; name; parent; req; start; stop } :: !recorded
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let spans () = List.rev !recorded
let duration s = s.stop -. s.start

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    (spans ())

(* Self time: a span's duration minus the part its children cover. *)
let self_times () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !recorded;
  let table = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      let n, total, selfs =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt table s.name)
      in
      Hashtbl.replace table s.name (n + 1, total +. duration s, selfs +. self))
    !recorded;
  Hashtbl.fold (fun name (n, total, self) acc -> (name, n, total, self) :: acc)
    table []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let pp_self_times fmt () =
  let rows = self_times () in
  let all = List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0.0 rows in
  Format.fprintf fmt "%-28s %8s %12s %12s %7s@." "span" "calls" "total_ms"
    "self_ms" "self%";
  List.iter
    (fun (name, n, total, self) ->
      Format.fprintf fmt "%-28s %8d %12.3f %12.3f %6.1f%%@." name n
        (1e3 *. total) (1e3 *. self)
        (100.0 *. self /. Float.max all 1e-12))
    rows

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_chrome_trace () =
  let events =
    List.map
      (fun s ->
        Printf.sprintf
          "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":0,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
          (json_string s.name)
          (1e6 *. (s.start -. origin))
          (1e6 *. duration s)
          s.id s.parent s.req)
      (spans ())
  in
  "[" ^ String.concat ",\n" events ^ "]\n"
