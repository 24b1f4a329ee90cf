(** The Unix-socket transport for {!Engine}.

    Single-threaded [select] loop: every readable client is drained first,
    then the accumulated complete request lines are answered in one
    {!Engine.exec_all} — that drain is the batching window in which
    same-shape [eval] requests (pipelined on one connection or arriving
    together on several) coalesce into stacked executor steps. Responses
    are written back in request order, one line each.

    [serve] blocks until a client sends [shutdown]: the pending drain is
    answered (the shutdown itself with [ok bye]), every connection is
    closed, the socket file is removed, and [serve] returns.

    A client that disconnects before its reply costs only its own
    connection: [serve] ignores SIGPIPE for the process, so the failed
    write surfaces as [EPIPE] and the connection is dropped. A request
    line longer than {!max_line_bytes} (counted without its newline, so a
    newline-less stream is caught as soon as it passes the cap) gets one
    [err] reply and its connection is closed; nothing it sent in the read
    that crossed the cap is run. *)

val max_line_bytes : int
(** The request-line cap, 1 MiB. *)

val serve : socket:string -> Engine.t -> unit
(** Listen on Unix socket [socket] (an existing socket file is replaced)
    and answer requests until [shutdown].
    @raise Unix.Unix_error when the socket cannot be bound (e.g. the
    parent directory is missing). *)
