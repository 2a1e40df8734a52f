type stats = { hits : int; misses : int; entries : int; evictions : int }

(* Every table ever created, by name: [reset] clears them all and [stats]
   sums the ones sharing a name. *)
type entry = { name : string; clear : unit -> unit; read : unit -> stats }

let registry_lock = Mutex.create ()
let registry : entry list ref = ref []

module Make (K : sig
  type t

  val hash : t -> int
end) =
struct
  (* A key carries its hash, computed once per call: a miss looks the key
     up, checks it again under the lock and adds it, and eviction removes
     it later, so [K.hash] (which may read a whole draft) runs once instead
     of four times. Equality compares the stored hashes before the keys.
     [compare] returns at once on sub-values that are the same object,
     which keys often share (one plan's specs, one parse's maps), where
     [=] would walk them. *)
  type key = { hash : int; key : K.t }

  module H = Hashtbl.Make (struct
    type t = key

    let equal a b = a.hash = b.hash && compare a.key b.key = 0
    let hash k = k.hash
  end)

  (* [order] holds the live keys oldest first — the eviction queue. An entry
     is only ever removed by eviction or [reset], so the queue and the table
     stay in lockstep (every queued key is live, every live key queued
     exactly once). Every field is guarded by [lock]. *)
  type 'v t = {
    lock : Mutex.t;
    table : 'v H.t;
    order : key Queue.t;
    cap : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let clear t =
    Mutex.protect t.lock (fun () ->
        H.reset t.table;
        Queue.clear t.order;
        t.hits <- 0;
        t.misses <- 0;
        t.evictions <- 0)

  let read t =
    Mutex.protect t.lock (fun () ->
        {
          hits = t.hits;
          misses = t.misses;
          entries = H.length t.table;
          evictions = t.evictions;
        })

  let create ~name ~cap =
    let t =
      {
        lock = Mutex.create ();
        table = H.create 16;
        order = Queue.create ();
        cap = max 1 cap;
        hits = 0;
        misses = 0;
        evictions = 0;
      }
    in
    let entry = { name; clear = (fun () -> clear t); read = (fun () -> read t) } in
    Mutex.protect registry_lock (fun () -> registry := entry :: !registry);
    t

  (* At the cap, drop the oldest eighth of the table instead of the whole
     thing: a full reset craters the hit rate mid-sweep (and would do so
     repeatedly in a warm long-lived server), while a bounded batch keeps
     the ~recent 7/8 of the working set hot. Batch size >= 1 so the insert
     after it always fits. Caller holds [lock]. *)
  let evict_batch t =
    for _ = 1 to max 1 (t.cap / 8) do
      match Queue.take_opt t.order with
      | None -> ()
      | Some k ->
          H.remove t.table k;
          t.evictions <- t.evictions + 1
    done

  (* A miss is counted when its value is stored, and a domain that lost the
     race to store it counts a hit, so misses do not depend on scheduling. *)
  let find t key compute =
    let key = { hash = K.hash key; key } in
    let cached =
      Mutex.protect t.lock (fun () ->
          let v = H.find_opt t.table key in
          if Option.is_some v then t.hits <- t.hits + 1;
          v)
    in
    match cached with
    | Some v -> v
    | None ->
        let v = compute () in
        Mutex.protect t.lock (fun () ->
            if H.mem t.table key then t.hits <- t.hits + 1
            else begin
              if H.length t.table >= t.cap then evict_batch t;
              H.add t.table key v;
              Queue.push key t.order;
              t.misses <- t.misses + 1
            end);
        v
end

let registered () = Mutex.protect registry_lock (fun () -> !registry)

let stats name =
  match List.filter (fun e -> e.name = name) (registered ()) with
  | [] -> invalid_arg ("Memo_table.stats: no table named " ^ name)
  | named ->
      List.fold_left
        (fun a e ->
          let s = e.read () in
          {
            hits = a.hits + s.hits;
            misses = a.misses + s.misses;
            entries = a.entries + s.entries;
            evictions = a.evictions + s.evictions;
          })
        { hits = 0; misses = 0; entries = 0; evictions = 0 }
        named

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let reset () = List.iter (fun e -> e.clear ()) (registered ())
