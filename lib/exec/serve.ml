let max_frame_bytes = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let write_all fd buf =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd buf !off (len - !off)
  done

(* Read exactly [len] bytes; [`Eof] only when the stream ends before the
   first byte — an end-of-stream mid-buffer is a truncated frame. *)
let read_exactly fd len =
  let buf = Bytes.create len in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < len do
    match Unix.read fd buf !off (len - !off) with
    | 0 -> eof := true
    | n -> off := !off + n
  done;
  if !off = len then `Ok buf else if !off = 0 then `Eof else `Truncated !off

let write_frame fd json =
  let payload = Bytes.of_string (Netcore.Json.to_string json) in
  let len = Bytes.length payload in
  let header = Bytes.create 4 in
  Bytes.set_uint8 header 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 header 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 header 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 header 3 (len land 0xff);
  write_all fd header;
  write_all fd payload

let read_frame fd =
  match read_exactly fd 4 with
  | `Eof -> None
  | `Truncated n -> failwith (Printf.sprintf "truncated frame header (%d/4 bytes)" n)
  | `Ok header -> (
      let len =
        (Bytes.get_uint8 header 0 lsl 24)
        lor (Bytes.get_uint8 header 1 lsl 16)
        lor (Bytes.get_uint8 header 2 lsl 8)
        lor Bytes.get_uint8 header 3
      in
      if len > max_frame_bytes then
        failwith (Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" len max_frame_bytes);
      match read_exactly fd len with
      | `Eof | `Truncated _ -> failwith "truncated frame payload"
      | `Ok payload -> (
          match Netcore.Json.of_string (Bytes.to_string payload) with
          | Ok json -> Some json
          | Error e -> failwith ("malformed frame payload: " ^ e)))

(* ------------------------------------------------------------------ *)
(* Server loop                                                         *)
(* ------------------------------------------------------------------ *)

type reply =
  | Reply of Netcore.Json.t
  | Drain of Netcore.Json.t
  | Final of Netcore.Json.t

let default_drain_reject _req =
  Netcore.Json.Obj
    [
      ("ok", Netcore.Json.Bool false);
      ("error", Netcore.Json.String "server draining");
      ("draining", Netcore.Json.Bool true);
    ]

let serve ~socket_path ~handle ?(backlog = 16) ?(io_timeout_ms = 30_000)
    ?(drain_grace_ms = 1_000) ?(drain_reject = default_drain_reject)
    ?(handle_signals = false) ?(on_drain = fun () -> ())
    ?(on_ready = fun () -> ()) ?on_reload () =
  if Sys.file_exists socket_path then Unix.unlink socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd backlog;
  (* Lifecycle state. [draining] stops accepting but keeps answering
     already-connected clients (with reject frames) for the grace window;
     [stopping] (the [Final] path) ends client loops at their next slice.
     Either way, shutting the listening socket down is what breaks the
     blocked [accept] on the main thread — including when the flip happens
     inside a signal handler. *)
  let state_m = Mutex.create () in
  let draining = ref false in
  let stopping = ref false in
  let drain_started = ref None in
  let locked f =
    Mutex.lock state_m;
    let v = f () in
    Mutex.unlock state_m;
    v
  in
  let request_drain () =
    let first =
      locked (fun () ->
          let first = (not !draining) && not !stopping in
          if first then begin
            draining := true;
            drain_started := Some (Unix.gettimeofday ())
          end;
          first)
    in
    if first then begin
      (try Unix.shutdown listen_fd Unix.SHUTDOWN_ALL with _ -> ());
      on_drain ()
    end
  in
  let request_stop () =
    let first =
      locked (fun () ->
          let first = not !stopping in
          stopping := true;
          if !drain_started = None then
            drain_started := Some (Unix.gettimeofday ());
          first)
    in
    if first then (try Unix.shutdown listen_fd Unix.SHUTDOWN_ALL with _ -> ())
  in
  (* Hot reload (SIGHUP): the handler only flips an atomic flag — the
     callback itself runs on whichever serving loop notices the flag next
     (the accept loop's EINTR wakes it; an idle client thread's select
     slice is at most 50 ms away), never inside the signal handler where a
     lock-taking callback would deadlock. *)
  let reload_flag = Atomic.make false in
  let maybe_reload () =
    if Atomic.exchange reload_flag false then
      match on_reload with Some f -> ( try f () with _ -> ()) | None -> ()
  in
  let old_hup =
    match on_reload with
    | Some _ ->
        Some
          (Sys.signal Sys.sighup
             (Sys.Signal_handle (fun _ -> Atomic.set reload_flag true)))
    | None -> None
  in
  let threads = ref [] in
  let threads_m = Mutex.create () in
  let next_client = ref 0 in
  let client_loop client fd =
    (* Slow-peer protection: a peer that stalls mid-frame, or never drains
       our writes, cannot pin this thread past the io timeout. *)
    if io_timeout_ms > 0 then begin
      let s = float_of_int io_timeout_ms /. 1000. in
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s with _ -> ());
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO s with _ -> ())
    end;
    let continue = ref true in
    (try
       while !continue do
         maybe_reload ();
         (* Wait for readability in short slices so a drain or stop begun
            while this client sits idle closes the connection at the grace
            deadline instead of stranding a blocked read forever. *)
         let readable =
           try
             match Unix.select [ fd ] [] [] 0.05 with
             | [], _, _ -> false
             | _ -> true
           with Unix.Unix_error (Unix.EINTR, _, _) -> false
         in
         let close_now =
           locked (fun () ->
               !stopping
               ||
               match !drain_started with
               | None -> false
               | Some t0 ->
                   Unix.gettimeofday () -. t0
                   >= float_of_int drain_grace_ms /. 1000.)
         in
         if close_now then continue := false
         else if readable then begin
           match read_frame fd with
           | None -> continue := false
           | Some req ->
               if locked (fun () -> !draining) then
                 (* Mid-drain requests get a structured reject until the
                    grace window ends — never a hang, never a bare close
                    with a request outstanding. *)
                 write_frame fd (drain_reject req)
               else (
                 let reply =
                   try handle ~client req
                   with e ->
                     (* The handler is supposed to be total (the service
                        layer wraps it in Resilience.Guard); this is the
                        transport's own last line — a handler bug answers
                        as an error frame instead of hanging the client. *)
                     Reply
                       (Netcore.Json.Obj
                          [
                            ("ok", Netcore.Json.Bool false);
                            ("error", Netcore.Json.String (Printexc.to_string e));
                          ])
                 in
                 match reply with
                 | Reply json -> write_frame fd json
                 | Drain json ->
                     write_frame fd json;
                     request_drain ()
                 | Final json ->
                     write_frame fd json;
                     continue := false;
                     request_stop ())
         end
       done
     with _ -> ());
    (* A framing error or a peer that vanished drops this client only. *)
    try Unix.close fd with _ -> ()
  in
  let old_handlers =
    if handle_signals then
      List.map
        (fun s ->
          (s, Sys.signal s (Sys.Signal_handle (fun _ -> request_drain ()))))
        [ Sys.sigterm; Sys.sigint ]
    else []
  in
  (* A reply written to a peer that already hung up must cost that client
     only: with SIGPIPE ignored the write raises EPIPE into [client_loop]'s
     handler instead of killing the process. *)
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  on_ready ();
  (try
     while not (locked (fun () -> !draining || !stopping)) do
       maybe_reload ();
       match Unix.accept listen_fd with
       | fd, _ ->
           let client = !next_client in
           incr next_client;
           let t = Thread.create (fun () -> client_loop client fd) () in
           Mutex.lock threads_m;
           threads := t :: !threads;
           Mutex.unlock threads_m
       | exception
           Unix.Unix_error
             ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED | Unix.EINTR), _, _)
         ->
           (* The listening socket was shut down under us (the drain/stop
              path), or a signal landed on this thread; the loop condition
              decides. *)
           ()
     done
   with Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _) ->
     ());
  Mutex.lock threads_m;
  let ts = !threads in
  Mutex.unlock threads_m;
  List.iter Thread.join ts;
  List.iter (fun (s, h) -> try Sys.set_signal s h with _ -> ()) old_handlers;
  Sys.set_signal Sys.sigpipe old_pipe;
  (match old_hup with
  | Some h -> ( try Sys.set_signal Sys.sighup h with _ -> ())
  | None -> ());
  (try Unix.close listen_fd with _ -> ());
  if Sys.file_exists socket_path then Unix.unlink socket_path;
  locked (fun () -> !draining && not !stopping)

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)
(* ------------------------------------------------------------------ *)

exception Server_overloaded of { retry_after_ms : int }

let () =
  Printexc.register_printer (function
    | Server_overloaded { retry_after_ms } ->
        Some
          (Printf.sprintf "Server_overloaded (retry_after_ms %d)" retry_after_ms)
    | _ -> None)

let connect ?(total_budget_ms = 1_000) ~socket_path () =
  let deadline =
    Unix.gettimeofday () +. (float_of_int (max 0 total_budget_ms) /. 1000.)
  in
  (* Exponential backoff from 1 ms, capped at 200 ms per sleep: a daemon
     that binds quickly is caught within a few milliseconds, while a slow
     one (supervisor respawn, cold pool spawn) is polled gently instead of
     50 times at a fixed cadence. *)
  let rec go delay_ms =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        (try Unix.close fd with _ -> ());
        let remaining = deadline -. Unix.gettimeofday () in
        Unix.sleepf
          (Float.min (float_of_int delay_ms /. 1000.) (Float.max remaining 0.001));
        go (min (delay_ms * 2) 200)
    | exception e ->
        (try Unix.close fd with _ -> ());
        raise e
  in
  try go 1
  with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
    failwith (Printf.sprintf "no server listening on %s" socket_path)

let request fd json =
  write_frame fd json;
  match read_frame fd with
  | None -> failwith "server closed the connection without replying"
  | Some reply -> (
      match
        Option.bind (Netcore.Json.member "shed" reply) Netcore.Json.to_bool
      with
      | Some true ->
          let retry_after_ms =
            Option.value ~default:0
              (Option.bind
                 (Netcore.Json.member "retry_after_ms" reply)
                 Netcore.Json.to_int)
          in
          raise (Server_overloaded { retry_after_ms })
      | _ -> reply)

let rec request_retrying ?(on_retry = fun () -> ()) ~retries fd json =
  match request fd json with
  | reply -> reply
  | exception Server_overloaded { retry_after_ms } when retries > 0 ->
      on_retry ();
      Thread.delay (float_of_int (max 0 retry_after_ms) /. 1000.);
      request_retrying ~on_retry ~retries:(retries - 1) fd json

let with_connection ?total_budget_ms ~socket_path f =
  let fd = connect ?total_budget_ms ~socket_path () in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) (fun () -> f fd)
