type t = {
  m : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  domains : int;
  mutable jobs_completed : int;
  mutable busy_s : float;
  mutable restarts : int;
  created_at : float;
}

type stats = {
  domains : int;
  jobs_completed : int;
  busy_s : float;
  wall_s : float;
  restarts : int;
}

(* Set by [lose_current_worker] on the domain running the current job;
   checked (and cleared) after every job. A flagged worker domain exits its
   loop and a replacement is spawned — a genuine domain restart, not just a
   counter. The flag is domain-local so a loss on one worker never leaks
   into a sibling. *)
let lost_flag : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let default_size () =
  match Sys.getenv_opt "COSYNTH_POOL_SIZE" with
  | Some s when int_of_string_opt (String.trim s) <> None ->
      Stdlib.max 0 (Option.get (int_of_string_opt (String.trim s)))
  | _ -> Stdlib.max 1 (Stdlib.min 8 (Domain.recommended_domain_count () - 1))

let size (t : t) = t.domains

let rec worker_loop (t : t) =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.nonempty t.m
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.m (* stopping and drained *)
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.m;
    let t0 = Unix.gettimeofday () in
    job ();
    let dt = Unix.gettimeofday () -. t0 in
    let lost = Domain.DLS.get lost_flag in
    let died = !lost in
    lost := false;
    Mutex.lock t.m;
    t.jobs_completed <- t.jobs_completed + 1;
    t.busy_s <- t.busy_s +. dt;
    if died then begin
      t.restarts <- t.restarts + 1;
      (* A replacement takes this worker's place unless the pool is already
         shutting down; the dead domain's handle stays in [workers] so
         [shutdown] still joins it (a finished domain joins instantly). *)
      if not t.stopping then
        t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
    end;
    Mutex.unlock t.m;
    if not died then worker_loop t
  end

let lose_current_worker (t : t) =
  if t.domains = 0 then begin
    (* A sequential pool has no worker domain to kill; the loss is absorbed
       as an instantaneous restart so the counters still tell the story. *)
    Mutex.lock t.m;
    t.restarts <- t.restarts + 1;
    Mutex.unlock t.m
  end
  else Domain.DLS.get lost_flag := true

let max_size = 64

let create ?domains () =
  let domains = match domains with Some d -> Stdlib.max 0 d | None -> default_size () in
  if domains > max_size then
    invalid_arg
      (Printf.sprintf "pool size %d exceeds the cap of %d worker domains" domains
         max_size);
  let t =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [];
      domains;
      jobs_completed = 0;
      busy_s = 0.;
      restarts = 0;
      created_at = Unix.gettimeofday ();
    }
  in
  t.workers <- List.init domains (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

(* Evaluate strictly left-to-right so a sequential map raises the first
   failing element's exception, matching [map]'s input-order re-raise. *)
let map_seq f xs = List.rev (List.fold_left (fun acc x -> f x :: acc) [] xs)

let map (t : t) f xs =
  if t.domains = 0 then map_seq f xs
  else
    match xs with
    | [] -> []
    | xs ->
        let arr = Array.of_list xs in
        let n = Array.length arr in
        let results = Array.make n None in
        let done_m = Mutex.create () in
        let done_c = Condition.create () in
        let completed = ref 0 in
        let task i () =
          let r =
            try Ok (f arr.(i)) with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          Mutex.lock done_m;
          results.(i) <- Some r;
          incr completed;
          Condition.broadcast done_c;
          Mutex.unlock done_m
        in
        Mutex.lock t.m;
        if t.stopping then begin
          Mutex.unlock t.m;
          invalid_arg "Pool.map: pool is shut down"
        end;
        for i = 0 to n - 1 do
          Queue.push (task i) t.queue
        done;
        Condition.broadcast t.nonempty;
        Mutex.unlock t.m;
        (* Help drain the queue while waiting: a job may itself call [map]
           on this pool, and if every worker were blocked the same way the
           nested jobs would never run. *)
        let rec wait () =
          Mutex.lock done_m;
          let finished = !completed = n in
          Mutex.unlock done_m;
          if not finished then begin
            Mutex.lock t.m;
            let stolen =
              if Queue.is_empty t.queue then None else Some (Queue.pop t.queue)
            in
            Mutex.unlock t.m;
            (match stolen with
            | Some job ->
                job ();
                (* The caller domain cannot be killed — it owns the map. A
                   loss signalled from a stolen job is absorbed as an
                   instant restart, mirroring the sequential pool. *)
                let lost = Domain.DLS.get lost_flag in
                let died = !lost in
                lost := false;
                Mutex.lock t.m;
                t.jobs_completed <- t.jobs_completed + 1;
                if died then t.restarts <- t.restarts + 1;
                Mutex.unlock t.m
            | None ->
                Mutex.lock done_m;
                if !completed < n then Condition.wait done_c done_m;
                Mutex.unlock done_m);
            wait ()
          end
        in
        wait ();
        Array.to_list
          (Array.map
             (function
               | Some (Ok v) -> v
               | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
               | None -> assert false)
             results)

let stats (t : t) =
  Mutex.lock t.m;
  let s =
    {
      domains = t.domains;
      jobs_completed = t.jobs_completed;
      busy_s = t.busy_s;
      wall_s = Unix.gettimeofday () -. t.created_at;
      restarts = t.restarts;
    }
  in
  Mutex.unlock t.m;
  s

let utilization s =
  if s.domains = 0 || s.wall_s <= 0. then 0.
  else Stdlib.min 1. (s.busy_s /. (s.wall_s *. float_of_int s.domains))

let shutdown (t : t) =
  Mutex.lock t.m;
  let workers = t.workers in
  t.stopping <- true;
  t.workers <- [];
  Condition.broadcast t.nonempty;
  Mutex.unlock t.m;
  List.iter Domain.join workers
