type stats = { hits : int; misses : int; entries : int; evictions : int }

let lock = Mutex.create ()

let table :
    ( Batfish.Parse_check.dialect * string,
      Policy.Config_ir.t * Netcore.Diag.t list )
    Hashtbl.t =
  Hashtbl.create 512

(* Insertion order of the live keys, oldest first — the eviction queue. An
   entry is only ever removed by eviction or [reset], so the queue and the
   table stay in lockstep (every queued key is live, every live key queued
   exactly once). *)
let order : (Batfish.Parse_check.dialect * string) Queue.t = Queue.create ()
let hits = ref 0
let misses = ref 0
let evictions = ref 0

(* Drafts are bounded in practice (a handful of live faults over one oracle
   config), but a long sweep over many topologies could still accumulate;
   cap the table rather than grow without bound. *)
let max_entries = 16_384

(* When the cap is hit, drop the oldest eighth of the table instead of the
   whole thing: a full [Hashtbl.reset] craters the hit rate mid-sweep (and
   would do so repeatedly in a warm long-lived server), while a bounded
   batch keeps the ~recent 7/8 of the working set hot. Batch size >= 1 so
   the insert below always fits. Caller holds [lock]. *)
let evict_batch () =
  let batch = max 1 (max_entries / 8) in
  for _ = 1 to batch do
    match Queue.take_opt order with
    | None -> ()
    | Some k ->
        Hashtbl.remove table k;
        incr evictions
  done

(* The table is success-only: a result is cached only when [parse] returns
   [Ok]. A verifier failure (a crash, a flake, a truncated response injected
   by the resilience layer) bypasses the table entirely, so a transient
   fault can never be memoized as truth. *)
let check_result dialect text ~parse =
  let key = (dialect, text) in
  Mutex.lock lock;
  match Hashtbl.find_opt table key with
  | Some r ->
      incr hits;
      Mutex.unlock lock;
      Ok r
  | None ->
      incr misses;
      Mutex.unlock lock;
      (match parse () with
      | Error _ as e -> e
      | Ok r ->
          Mutex.lock lock;
          if not (Hashtbl.mem table key) then begin
            if Hashtbl.length table >= max_entries then evict_batch ();
            Hashtbl.add table key r;
            Queue.push key order
          end;
          Mutex.unlock lock;
          Ok r)

let check dialect text =
  match
    check_result dialect text ~parse:(fun () ->
        Ok (Batfish.Parse_check.check dialect text))
  with
  | Ok r -> r
  | Error (_ : unit) -> assert false

let stats () =
  Mutex.lock lock;
  let s =
    {
      hits = !hits;
      misses = !misses;
      entries = Hashtbl.length table;
      evictions = !evictions;
    }
  in
  Mutex.unlock lock;
  s

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Queue.clear order;
  hits := 0;
  misses := 0;
  evictions := 0;
  Mutex.unlock lock
