(* Driving units and measuring them: the in-process loop, the two-client
   socket load, and the set-up probes. *)

(* Scratch space for journals, sockets and traces, inside the checkout. *)
let run_dir = ".perf-run"

let fresh_dir tag =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  let d = Filename.concat run_dir (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

let remove_dir d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

(* One unit's measurements. *)
type sample = {
  start_s : float;  (** Seconds since the run began. *)
  latency_s : float;
  busy_s : float;
      (** How long the unit held its client: its latency in process; on
          serve, until the same connection sent its next request. *)
  cpu_s : float;  (** In process: this process's CPU time for the unit. *)
  words : float;  (** In process: words allocated by the unit. *)
}

type totals = {
  units : sample array;
  wall_s : float;
      (** Time the units took: in process their summed latency (re-checks
          excluded), on serve the load's wall time. *)
  words : float;  (** Words this process allocated while the units ran. *)
  window_cpu_s : float array;
      (** Serve: the daemon's CPU time in each {!Stat.window_s} window. *)
  rss_mb : float;
      (** Peak RSS of the measured process once {!Work.rss_units} units
          had run, or at the end of a shorter run. *)
}

(* Run units [first], [first + 1], ... back to back until [seconds] of unit
   time or [max_units] units. [wrap] runs around each unit inside the timed
   region (the traced run snapshots counters there). Re-checks run outside
   it. [at_boundary i] runs between units once window [i] has begun. *)
let in_process ?journal ?(wrap = fun _ f -> f ()) ?(at_boundary = ignore) w ~seed ~first
    ~seconds ~max_units tally =
  let samples = Stat.Sample.create () in
  let busy = ref 0. and n = ref 0 and rss = ref None in
  let t_run = Stat.now_ns () in
  let next_boundary = ref 0 in
  while !busy < seconds && !n < max_units do
    while Stat.seconds_since t_run >= float_of_int !next_boundary *. Stat.window_s do
      at_boundary !next_boundary;
      incr next_boundary
    done;
    let i = first + !n in
    let loop = Work.unit_of w ~seed i in
    let a0 = Stat.allocated_words () in
    let c0 = Stat.cpu_seconds () in
    let t0 = Stat.now_ns () in
    let r =
      match wrap loop (fun () -> Work.run_unit ?journal loop) with
      | v -> Ok v
      | exception e -> Error ("raised " ^ Printexc.to_string e)
    in
    let dt = Stat.seconds_since t0 in
    let c1 = Stat.cpu_seconds () in
    let a1 = Stat.allocated_words () in
    busy := !busy +. dt;
    Stat.Sample.add samples
      {
        start_s = Stat.span_s t_run t0;
        latency_s = dt;
        busy_s = dt;
        cpu_s = c1 -. c0;
        words = a1 -. a0;
      };
    Tally.record tally i (Result.map (fun (o, recheck) -> (o, recheck ())) r);
    incr n;
    if !n = Work.rss_units w then rss := Some (Stat.peak_rss_mb "self")
  done;
  let units = Stat.Sample.to_array samples in
  {
    units;
    wall_s = !busy;
    words = Array.fold_left (fun a (u : sample) -> a +. u.words) 0. units;
    window_cpu_s = [||];
    rss_mb = (match !rss with Some r -> r | None -> Stat.peak_rss_mb "self");
  }

(* A closed loop over two connections, one thread each: connection [c]
   sends requests [first + c], [first + c + 2], ... and each waits for its
   reply before sending the next. [after_each] runs on the connection
   after every reply, outside the request's timing. A third thread reads
   the daemon's CPU time at every window boundary. *)
let serve_load ?(after_each = fun _ -> ()) (d : Work.daemon) ~seed ~first ~seconds ~max_units
    tally =
  let m = Mutex.create () in
  let replies = ref [] and answered = ref 0 and rss = ref None in
  let daemon_rss () = Stat.peak_rss_mb (string_of_int d.Work.pid) in
  let daemon_cpu () = Stat.process_cpu_seconds d.Work.pid in
  let t0 = Stat.now_ns () in
  let a0 = Stat.allocated_words () in
  let running = Atomic.make 2 in
  let client c () =
    (* The previous request waits here until this connection sends its next
       one, which ends its [busy_s]. *)
    let pending = ref None in
    let settle until =
      Option.iter
        (fun (k, start, s, reply) ->
          let s = { s with busy_s = Stat.span_s start until } in
          Mutex.protect m (fun () -> replies := (k, s, reply) :: !replies))
        !pending;
      pending := None
    in
    (try
       Exec.Serve.with_connection ~socket_path:d.Work.socket (fun fd ->
           let j = ref 0 in
           while Stat.seconds_since t0 < seconds && (2 * !j) + c < max_units do
             let k = first + (2 * !j) + c in
             let loop = Work.unit_of Work.Serve ~seed k in
             let req = Work.request_of loop in
             let s0 = Stat.now_ns () in
             settle s0;
             let reply =
               match Exec.Serve.request fd req with
               | r -> Work.outcome_of_reply loop r
               | exception Exec.Serve.Server_overloaded _ -> Error "shed"
               | exception e -> Error ("request failed: " ^ Printexc.to_string e)
             in
             let dt = Stat.seconds_since s0 in
             let u = { start_s = Stat.span_s t0 s0; latency_s = dt; busy_s = dt; cpu_s = 0.; words = 0. } in
             pending := Some (k, s0, u, reply);
             Mutex.protect m (fun () ->
                 incr answered;
                 if !answered = Work.rss_units Work.Serve then rss := Some (daemon_rss ()));
             after_each fd;
             incr j
           done;
           settle (Stat.now_ns ()))
     with e ->
       settle (Stat.now_ns ());
       Mutex.protect m (fun () ->
           replies :=
             ( first + c,
               { start_s = 0.; latency_s = 0.; busy_s = 0.; cpu_s = 0.; words = 0. },
               Error ("connection failed: " ^ Printexc.to_string e) )
             :: !replies));
    Atomic.decr running
  in
  let cpu_marks = ref [ daemon_cpu () ] in
  let monitor () =
    let b = ref 1 in
    while Atomic.get running > 0 do
      if Stat.seconds_since t0 >= float_of_int !b *. Stat.window_s then begin
        cpu_marks := daemon_cpu () :: !cpu_marks;
        incr b
      end
      else Thread.delay 0.005
    done
  in
  let threads = List.init 2 (fun c -> Thread.create (client c) ()) in
  let mon = Thread.create monitor () in
  List.iter Thread.join threads;
  Thread.join mon;
  let wall = Stat.seconds_since t0 in
  let words = Stat.allocated_words () -. a0 in
  let marks = Array.of_list (List.rev (daemon_cpu () :: !cpu_marks)) in
  let replies = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !replies in
  List.iter
    (fun (k, _, reply) -> Tally.record tally k (Result.map (fun o -> (o, None)) reply))
    replies;
  {
    units = Array.of_list (List.map (fun (_, s, _) -> s) replies);
    wall_s = wall;
    words;
    window_cpu_s = Array.init (Array.length marks - 1) (fun i -> marks.(i + 1) -. marks.(i));
    rss_mb = (match !rss with Some r -> r | None -> daemon_rss ());
  }

(* What happens between process start and the first unit: everything the
   workload builds before it can run unit 0. *)
let prepare w ~seed =
  ignore (Work.unit_of w ~seed 0 : Work.loop);
  if w = Work.Hardened then begin
    let dir = fresh_dir "probe" in
    Exec.Sweep.journal_close (Work.open_journal (Filename.concat dir "journal.jsonl"));
    remove_dir dir
  end

(* Time from spawning this executable in set-up-probe mode to its "ready"
   line, i.e. process start to the moment unit 0 could start. *)
let probe_setup w ~seed =
  let exe = Sys.executable_name in
  let r, wr = Unix.pipe ~cloexec:true () in
  let t0 = Stat.now_ns () in
  let pid =
    Unix.create_process exe
      [| exe; "--setup-probe"; "--workload"; Work.workload_name w; "--seed";
         string_of_int seed |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let dt = Stat.seconds_since t0 in
  close_in ic;
  match (Unix.waitpid [] pid, line) with
  | (_, Unix.WEXITED 0), "ready" -> dt
  | _ -> failwith "set-up probe failed"

