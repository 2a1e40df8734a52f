(* Tests for the parallel execution engine (lib/exec): pool determinism —
   parallel sweeps must be bit-identical to sequential maps — memo-cache
   correctness for the Batfish-style syntax check, and the driver fixes
   that ride along (hub lookup by name in the global phase, infinite
   leverage handling). *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let cisco_text = Cisco.Samples.border_router

(* A shared pool for the whole file; 4 workers regardless of the machine so
   the parallel path is exercised even on single-core CI. *)
let pool = Exec.Pool.create ~domains:4 ()

exception Boom of int

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map_ordering () =
  let xs = List.init 50 (fun i -> i) in
  check (Alcotest.list int_t) "results in input order"
    (List.map (fun x -> x * x) xs)
    (Exec.Pool.map pool (fun x -> x * x) xs);
  check (Alcotest.list int_t) "empty input" [] (Exec.Pool.map pool (fun x -> x) [])

let test_pool_map_exception () =
  match Exec.Pool.map pool (fun x -> if x = 3 then raise (Boom x) else x) [ 1; 2; 3; 4 ] with
  | _ -> Alcotest.fail "expected the job exception to propagate"
  | exception Boom 3 -> ()

let test_pool_nested_map () =
  (* A job that maps on the same pool must not deadlock (the waiting caller
     helps drain the queue). *)
  let inner n = Exec.Pool.map pool (fun i -> i + n) [ 1; 2; 3 ] in
  let out = Exec.Pool.map pool (fun n -> List.fold_left ( + ) 0 (inner n)) [ 10; 20 ] in
  check (Alcotest.list int_t) "nested results" [ 36; 66 ] out

let test_pool_sequential_fallback () =
  let p0 = Exec.Pool.create ~domains:0 () in
  check int_t "size 0" 0 (Exec.Pool.size p0);
  check (Alcotest.list int_t) "runs on caller" [ 2; 4 ] (Exec.Pool.map p0 (fun x -> 2 * x) [ 1; 2 ]);
  Exec.Pool.shutdown p0

let test_pool_stats () =
  let p = Exec.Pool.create ~domains:2 () in
  ignore (Exec.Pool.map p (fun x -> x + 1) (List.init 10 (fun i -> i)));
  let s = Exec.Pool.stats p in
  check int_t "domains" 2 s.Exec.Pool.domains;
  check bool_t "jobs counted" true (s.Exec.Pool.jobs_completed >= 10);
  check bool_t "utilization in range" true
    (Exec.Pool.utilization s >= 0. && Exec.Pool.utilization s <= 1.);
  Exec.Pool.shutdown p

(* ------------------------------------------------------------------ *)
(* Sweep determinism: parallel == sequential, bit for bit              *)
(* ------------------------------------------------------------------ *)

let md t = Cosynth.Driver.transcript_to_markdown ~title:"run" t

let test_sweep_translation_deterministic () =
  let seeds = Exec.Sweep.seeds ~base:100 ~n:12 in
  let run seed =
    (Cosynth.Driver.run_translation ~seed ~cisco_text ()).Cosynth.Driver.transcript
  in
  let seq = Exec.Sweep.run_seeds ~seeds run in
  let par = Exec.Sweep.run_seeds ~pool ~seeds run in
  check int_t "same length" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      check bool_t "transcript byte-identical" true (md a = md b);
      check bool_t "leverage identical" true
        (Cosynth.Driver.leverage a = Cosynth.Driver.leverage b))
    seq par

let test_sweep_no_transit_deterministic () =
  let seeds = Exec.Sweep.seeds ~base:300 ~n:10 in
  let run ?pool seed =
    let r = Cosynth.Driver.run_no_transit ~seed ?pool ~routers:5 () in
    (r.Cosynth.Driver.transcript, r.Cosynth.Driver.global_ok)
  in
  (* Fully sequential vs: seeds on the pool AND per-router fan-out on the
     pool — the strongest form of the acceptance bar. *)
  let seq = Exec.Sweep.run_seeds ~seeds (fun s -> run s) in
  let par = Exec.Sweep.run_seeds ~pool ~seeds (fun s -> run ~pool s) in
  List.iter2
    (fun (ta, oka) (tb, okb) ->
      check bool_t "transcript byte-identical" true (md ta = md tb);
      check bool_t "global_ok identical" true (oka = okb))
    seq par

let test_run_no_transit_pool_equals_sequential () =
  List.iter
    (fun seed ->
      let a = Cosynth.Driver.run_no_transit ~seed ~routers:7 () in
      let b = Cosynth.Driver.run_no_transit ~seed ~pool ~routers:7 () in
      check bool_t "transcript byte-identical" true
        (md a.Cosynth.Driver.transcript = md b.Cosynth.Driver.transcript);
      check bool_t "configs identical" true
        (List.map fst a.Cosynth.Driver.configs = List.map fst b.Cosynth.Driver.configs);
      check bool_t "verification identical" true
        (a.Cosynth.Driver.per_router_verified = b.Cosynth.Driver.per_router_verified))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Memo cache                                                          *)
(* ------------------------------------------------------------------ *)

let draft_corpus () =
  let junos = Juniper.Printer.print (Juniper.Translate.of_cisco_ir (fst (Cisco.Parser.parse cisco_text))) in
  let star = Netcore.Star.make ~routers:3 in
  let hub = (List.hd (Cosynth.Modularizer.plan star)).Cosynth.Modularizer.correct in
  let hub_text = Cisco.Printer.print hub in
  let broken_cisco = "ip community-list standard CL permit .+\nrouter bgp\n" in
  let broken_junos = "policy-options prefix-list p 1.2.3.0/24-32\n{{{\n" in
  [
    (Batfish.Parse_check.Junos, junos);
    (Batfish.Parse_check.Cisco_ios, hub_text);
    (Batfish.Parse_check.Cisco_ios, cisco_text);
    (Batfish.Parse_check.Cisco_ios, broken_cisco);
    (Batfish.Parse_check.Junos, broken_junos);
    (Batfish.Parse_check.Cisco_ios, "");
    (Batfish.Parse_check.Junos, "garbage in, diagnostics out");
  ]

let test_memo_matches_uncached () =
  Exec.Memo.reset ();
  List.iter
    (fun (dialect, text) ->
      let ir_m, diags_m = Exec.Memo.check dialect text in
      let ir_u, diags_u = Batfish.Parse_check.check dialect text in
      check bool_t "diagnostics identical" true (diags_m = diags_u);
      let print ir =
        match dialect with
        | Batfish.Parse_check.Cisco_ios -> Cisco.Printer.print ir
        | Batfish.Parse_check.Junos -> Juniper.Printer.print ir
      in
      check bool_t "IR identical" true (print ir_m = print ir_u))
    (draft_corpus ())

let test_memo_hits () =
  Exec.Memo.reset ();
  let corpus = draft_corpus () in
  List.iter (fun (d, t) -> ignore (Exec.Memo.check d t)) corpus;
  let s1 = Exec.Memo.stats () in
  check int_t "all misses on first pass" (List.length corpus) s1.Exec.Memo.misses;
  check int_t "no hits yet" 0 s1.Exec.Memo.hits;
  List.iter (fun (d, t) -> ignore (Exec.Memo.check d t)) corpus;
  let s2 = Exec.Memo.stats () in
  check int_t "all hits on second pass" (List.length corpus) s2.Exec.Memo.hits;
  check int_t "no new misses" s1.Exec.Memo.misses s2.Exec.Memo.misses;
  check bool_t "hit rate 0.5" true (abs_float (Netcore.Memo_table.hit_rate s2 -. 0.5) < 1e-9);
  (* Same text under the other dialect is a distinct key. *)
  let d, t = List.hd corpus in
  let other =
    match d with
    | Batfish.Parse_check.Junos -> Batfish.Parse_check.Cisco_ios
    | Batfish.Parse_check.Cisco_ios -> Batfish.Parse_check.Junos
  in
  ignore (Exec.Memo.check other t);
  check int_t "dialect in the key" (s2.Exec.Memo.misses + 1) (Exec.Memo.stats ()).Exec.Memo.misses

(* A draft carries [Hashtbl.hash] of its text, and the parse and draft
   tables read it: the same text in another string object, hashed where it
   enters, hits. *)
let test_memo_carried_hash () =
  Exec.Memo.reset ();
  let hub = List.hd (Cosynth.Modularizer.plan (Netcore.Star.make ~routers:5)) in
  let text = Cisco.Printer.print hub.Cosynth.Modularizer.correct
  and specs = hub.Cosynth.Modularizer.specs in
  let same = Bytes.to_string (Bytes.of_string text) in
  check bool_t "another string object" false (same == text);
  let d = Netcore.Draft.of_string text and d' = Netcore.Draft.of_string same in
  check int_t "the carried hash is the text's" (Hashtbl.hash text) d.Netcore.Draft.hash;
  check int_t "equal texts carry equal hashes" d.Netcore.Draft.hash d'.Netcore.Draft.hash;
  let cisco = Batfish.Parse_check.Cisco_ios in
  ignore (Exec.Memo.route_policies_of_draft d specs);
  let parses = Exec.Memo.stats () and verdicts = Netcore.Memo_table.stats "verdict_memo" in
  ignore (Exec.Memo.check_draft cisco d');
  ignore (Exec.Memo.check cisco same);
  ignore (Exec.Memo.route_policies_of_draft d' specs);
  let parses' = Exec.Memo.stats () and verdicts' = Netcore.Memo_table.stats "verdict_memo" in
  check int_t "two parse hits" (parses.Exec.Memo.hits + 2) parses'.Exec.Memo.hits;
  check int_t "no parse miss" parses.Exec.Memo.misses parses'.Exec.Memo.misses;
  check int_t "one draft-table hit" (verdicts.Exec.Memo.hits + 1) verdicts'.Exec.Memo.hits;
  check int_t "no draft-table miss" verdicts.Exec.Memo.misses verdicts'.Exec.Memo.misses

let test_memo_thread_safe () =
  Exec.Memo.reset ();
  let corpus = draft_corpus () in
  let results =
    Exec.Pool.map pool
      (fun i ->
        let d, t = List.nth corpus (i mod List.length corpus) in
        snd (Exec.Memo.check d t))
      (List.init 32 (fun i -> i))
  in
  List.iteri
    (fun i diags ->
      let d, t = List.nth corpus (i mod List.length corpus) in
      check bool_t "concurrent result correct" true
        (diags = snd (Batfish.Parse_check.check d t)))
    results

(* ------------------------------------------------------------------ *)
(* Supervisor: the exception/chaos boundary                            *)
(* ------------------------------------------------------------------ *)

let outcome_t =
  Alcotest.testable
    (fun ppf (o : int Exec.Supervisor.outcome) ->
      match o with
      | Exec.Supervisor.Completed v -> Format.fprintf ppf "Completed %d" v
      | Exec.Supervisor.Abandoned { attempts; reason } ->
          Format.fprintf ppf "Abandoned (%d, %s)" attempts reason)
    ( = )

let test_supervisor_rate0_identity () =
  let xs = List.init 40 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = List.map (fun x -> Exec.Supervisor.Completed (f x)) xs in
  check (Alcotest.list outcome_t) "no plan, sequential" expected
    (Exec.Supervisor.map f xs);
  check (Alcotest.list outcome_t) "no plan, pooled" expected
    (Exec.Supervisor.map ~pool f xs);
  (* A rate-0 plan draws and never loses. *)
  let plan = Resilience.Chaos.worker_plan (Resilience.Chaos.make ~seed:9 ()) ~salt:0 in
  check (Alcotest.list outcome_t) "rate-0 plan, pooled" expected
    (Exec.Supervisor.map ~pool ~plan f xs)

let test_supervisor_exception_boundary () =
  let policy = { Exec.Supervisor.max_attempts = 3 } in
  let out =
    Exec.Supervisor.map ~pool ~policy
      (fun x -> if x = 2 then raise (Boom x) else x * 10)
      [ 0; 1; 2; 3 ]
  in
  (* The poisoned task is data, not a sweep-killing exception, and the
     other results are all present and ordered. *)
  check (Alcotest.list int_t) "survivors intact in order" [ 0; 10; 30 ]
    (List.filter_map Exec.Supervisor.completed out);
  match List.nth out 2 with
  | Exec.Supervisor.Abandoned { attempts; reason } ->
      check int_t "budget spent" 3 attempts;
      check bool_t "reason carries the exception" true
        (String.length reason > 0)
  | Exec.Supervisor.Completed _ -> Alcotest.fail "task 2 must be abandoned"

let test_supervisor_abandonment_deterministic () =
  (* An always-lose plan abandons everything with the full budget spent,
     and the losses never raise even without a pool. *)
  let plan ~index:_ ~attempt:_ = Some Exec.Supervisor.At_dispatch in
  let out = Exec.Supervisor.map ~plan (fun x -> x) [ 1; 2; 3 ] in
  check int_t "all abandoned" 3
    (List.length (List.filter Exec.Supervisor.abandoned out));
  List.iter
    (function
      | Exec.Supervisor.Abandoned { attempts; _ } ->
          check int_t "default budget" 4 attempts
      | Exec.Supervisor.Completed _ -> Alcotest.fail "impossible")
    out;
  (* The seeded plan is a pure function of (index, attempt): two sweeps
     over the same indices draw identical schedules, pooled or not. *)
  let chaos = Resilience.Chaos.make ~worker_loss_rate:0.5 ~seed:77 () in
  let plan = Resilience.Chaos.worker_plan chaos ~salt:0 in
  let xs = List.init 30 (fun i -> 500 + i) in
  let a = Exec.Supervisor.map ~plan ~index_of:(fun x -> x) (fun x -> x) xs in
  let b = Exec.Supervisor.map ~pool ~plan ~index_of:(fun x -> x) (fun x -> x) xs in
  check (Alcotest.list outcome_t) "pooled == sequential under losses" a b;
  check bool_t "a 0.5 loss rate actually loses something" true
    (List.exists Exec.Supervisor.abandoned a
    || List.length (List.filter_map Exec.Supervisor.completed a) < List.length xs
    || (Exec.Supervisor.stats ()).Exec.Supervisor.losses > 0)

let test_supervisor_restarts_worker () =
  (* A private pool so the restart counter is ours alone. Losses on worker
     domains really kill them; the pool replaces each one and the map
     still returns every result in order. *)
  let p = Exec.Pool.create ~domains:2 () in
  let plan ~index ~attempt =
    if index mod 3 = 0 && attempt = 1 then Some Exec.Supervisor.At_dispatch
    else None
  in
  let xs = List.init 12 (fun i -> i) in
  let out = Exec.Supervisor.map ~pool:p ~plan (fun x -> x * 2) xs in
  check (Alcotest.list int_t) "all complete despite losses"
    (List.map (fun x -> x * 2) xs)
    (List.filter_map Exec.Supervisor.completed out);
  let s = Exec.Pool.stats p in
  check bool_t "worker domains were restarted" true (s.Exec.Pool.restarts > 0);
  (* The pool still works after the restarts. *)
  check (Alcotest.list int_t) "pool alive after restarts" [ 2; 3 ]
    (Exec.Pool.map p (fun x -> x + 1) [ 1; 2 ]);
  Exec.Pool.shutdown p

let test_supervisor_in_flight_loss () =
  (* An in-flight loss runs the task body and throws the result away: the
     retry completes normally, so the sweep result is unchanged but the
     body observably ran once more than the task count. *)
  let ran = Atomic.make 0 in
  let plan ~index ~attempt =
    if index = 1 && attempt = 1 then Some Exec.Supervisor.In_flight else None
  in
  let c0 = Exec.Supervisor.stats () in
  let out =
    Exec.Supervisor.map ~plan
      (fun x ->
        Atomic.incr ran;
        x * 2)
      [ 0; 1; 2 ]
  in
  check (Alcotest.list int_t) "every task completes after the in-flight loss"
    [ 0; 2; 4 ]
    (List.filter_map Exec.Supervisor.completed out);
  check int_t "the lost dispatch really ran the body" 4 (Atomic.get ran);
  let c = Exec.Supervisor.diff c0 (Exec.Supervisor.stats ()) in
  check int_t "one loss drawn" 1 c.Exec.Supervisor.losses;
  check int_t "one requeue" 1 c.Exec.Supervisor.requeues;
  (* A body that raises during the doomed dispatch changes nothing: the
     domain was dying anyway, the exception dies with it. *)
  let first = Atomic.make true in
  let out =
    Exec.Supervisor.run_one ~plan ~index:1 (fun () ->
        if Atomic.exchange first false then failwith "died mid-task" else 7)
  in
  check int_t "exception during an in-flight loss is just a loss" 7
    (match out with
    | Exec.Supervisor.Completed v -> v
    | Exec.Supervisor.Abandoned _ -> -1);
  (* Chaos mode split: the loss schedule is identical whatever the
     in-flight fraction — only the mode of each drawn loss varies. *)
  let chaos = Resilience.Chaos.make ~worker_loss_rate:0.4 ~seed:21 () in
  let p0 = Resilience.Chaos.worker_plan chaos ~salt:0 in
  let p1 = Resilience.Chaos.worker_plan ~in_flight:1.0 chaos ~salt:0 in
  for index = 0 to 50 do
    let a = p0 ~index ~attempt:1 and b = p1 ~index ~attempt:1 in
    check bool_t "same dispatches lost at any in-flight fraction" true
      ((a = None) = (b = None));
    check bool_t "fraction 0 losses are at dispatch" true
      (a = None || a = Some Exec.Supervisor.At_dispatch);
    check bool_t "fraction 1 losses are in flight" true
      (b = None || b = Some Exec.Supervisor.In_flight)
  done

(* ------------------------------------------------------------------ *)
(* Checkpoint journal + resumable sweeps                               *)
(* ------------------------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "cosynth_test_" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_checkpoint_roundtrip () =
  with_temp (fun path ->
      let ck = Exec.Checkpoint.open_ ~truncate:true path in
      Exec.Checkpoint.record ck ~seed:7 (Netcore.Json.Int 70);
      Exec.Checkpoint.record ck ~seed:9 (Netcore.Json.String "ninety");
      (* A later record for the same seed supersedes the earlier one. *)
      Exec.Checkpoint.record ck ~seed:7 (Netcore.Json.Int 71);
      Exec.Checkpoint.close ck;
      let entries = Exec.Checkpoint.load path in
      check int_t "two distinct seeds" 2 (List.length entries);
      check bool_t "latest record wins" true
        (List.assoc 7 entries = Netcore.Json.Int 71);
      check bool_t "other seed intact" true
        (List.assoc 9 entries = Netcore.Json.String "ninety"))

let test_checkpoint_partial_line_tolerated () =
  with_temp (fun path ->
      let ck = Exec.Checkpoint.open_ ~truncate:true path in
      Exec.Checkpoint.record ck ~seed:1 (Netcore.Json.Int 10);
      Exec.Checkpoint.record ck ~seed:2 (Netcore.Json.Int 20);
      Exec.Checkpoint.close ck;
      (* Simulate a crash mid-write: a truncated trailing line. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"seed\":3,\"summ";
      close_out oc;
      let entries = Exec.Checkpoint.load path in
      check int_t "whole lines survive" 2 (List.length entries);
      check bool_t "no seed 3" true (not (List.mem_assoc 3 entries));
      check bool_t "missing file is empty" true
        (Exec.Checkpoint.load (path ^ ".does-not-exist") = []))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_checkpoint_compact () =
  with_temp (fun path ->
      let ck = Exec.Checkpoint.open_ ~truncate:true path in
      Exec.Checkpoint.record ck ~seed:1 (Netcore.Json.Int 10);
      Exec.Checkpoint.record ck ~seed:2 (Netcore.Json.Int 20);
      Exec.Checkpoint.record ck ~seed:1 (Netcore.Json.Int 11);
      Exec.Checkpoint.record ck ~seed:1 (Netcore.Json.Int 12);
      Exec.Checkpoint.close ck;
      (* A crash-truncated trailing line is dropped by compaction too. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"seed\":3,\"summ";
      close_out oc;
      let before = Exec.Checkpoint.load path in
      let dropped, kept = Exec.Checkpoint.compact path in
      check int_t "superseded + partial lines dropped" 3 dropped;
      check int_t "one line per surviving seed" 2 kept;
      (* Compaction must be invisible to load. *)
      check bool_t "load unchanged by compaction" true
        (Exec.Checkpoint.load path = before);
      (* The rewrite frames records exactly as appends do: the compacted
         file is byte-identical to a fresh journal of the survivors. *)
      let fresh = path ^ ".fresh" in
      let ck = Exec.Checkpoint.open_ ~truncate:true fresh in
      List.iter (fun (seed, payload) -> Exec.Checkpoint.record ck ~seed payload) before;
      Exec.Checkpoint.close ck;
      let same = read_file fresh = read_file path in
      Sys.remove fresh;
      check bool_t "compacted bytes equal a fresh journal's" true same;
      (* And idempotent. *)
      check bool_t "second compaction drops nothing" true
        (Exec.Checkpoint.compact path = (0, 2)))

let test_checkpoint_framing () =
  with_temp (fun path ->
      let ck = Exec.Checkpoint.open_ ~truncate:true path in
      Exec.Checkpoint.record ck ~seed:1 (Netcore.Json.Int 10);
      Exec.Checkpoint.record ck ~seed:2 (Netcore.Json.Int 20);
      Exec.Checkpoint.close ck;
      (* Every journal line carries the store's "len crc payload" frame. *)
      let lines =
        List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' (read_file path))
      in
      check int_t "one frame per record" 2 (List.length lines);
      List.iter
        (fun l ->
          check bool_t "header separators" true (l.[8] = ' ' && l.[17] = ' ');
          let payload = String.sub l 18 (String.length l - 18) in
          check bool_t "framed line decodes as Ok" true
            (match Durable.Store.decode_line l with
            | `Ok j -> Netcore.Json.to_string j = payload
            | _ -> false))
        lines;
      (* Flipping one payload byte fails the CRC: the record is skipped
         and counted, never decoded wrong or raised. *)
      let b = Bytes.of_string (read_file path) in
      Bytes.set b (Bytes.length b - 3)
        (Char.chr (Char.code (Bytes.get b (Bytes.length b - 3)) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      let entries = Exec.Checkpoint.load path in
      check int_t "flipped record skipped" 1 (List.length entries);
      check bool_t "surviving record intact" true
        (List.assoc 1 entries = Netcore.Json.Int 10))

let test_checkpoint_legacy_loads () =
  with_temp (fun path ->
      (* A journal written before the CRC framing: bare JSON objects. *)
      let oc = open_out_bin path in
      output_string oc "{\"seed\":1,\"summary\":10}\n";
      output_string oc "{\"seed\":2,\"summary\":20}\n";
      close_out oc;
      let entries = Exec.Checkpoint.load path in
      check int_t "legacy lines load" 2 (List.length entries);
      check bool_t "legacy payloads decode" true
        (List.assoc 1 entries = Netcore.Json.Int 10
        && List.assoc 2 entries = Netcore.Json.Int 20);
      (* Mixed history: appends land framed next to the legacy lines and
         compaction rewrites everything framed, dropping nothing legal. *)
      let ck = Exec.Checkpoint.open_ path in
      Exec.Checkpoint.record ck ~seed:3 (Netcore.Json.Int 30);
      Exec.Checkpoint.record ck ~seed:1 (Netcore.Json.Int 11);
      Exec.Checkpoint.close ck;
      let dropped, kept = Exec.Checkpoint.compact path in
      check int_t "superseded legacy line dropped" 1 dropped;
      check int_t "three seeds kept" 3 kept;
      let _, stats = Durable.Store.read path in
      check int_t "compaction leaves no legacy lines" 0
        stats.Durable.Store.legacy;
      check bool_t "post-compact load merges both eras" true
        (* Completion order: seed 1's superseding record is the youngest. *)
        (Exec.Checkpoint.load path
        = [ (2, Netcore.Json.Int 20); (3, Netcore.Json.Int 30);
            (1, Netcore.Json.Int 11) ]);
      (* A bare non-object line is corruption, not a legacy record: a torn
         frame header can scan as a JSON scalar. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "0000001\n";
      close_out oc;
      let _, stats = Durable.Store.read path in
      check int_t "bare scalar counted corrupt" 1 stats.Durable.Store.corrupt;
      check int_t "no phantom record" 3 (List.length (Exec.Checkpoint.load path)))

let test_checkpoint_torn_tail_sealed () =
  with_temp (fun path ->
      let ck = Exec.Checkpoint.open_ ~truncate:true path in
      Exec.Checkpoint.record ck ~seed:1 (Netcore.Json.Int 10);
      Exec.Checkpoint.close ck;
      (* A writer died mid-record: the tail line has no newline. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "00000016 deadbeef {\"se";
      close_out oc;
      (* The next append seals the torn tail so its record cannot merge
         into it and be lost to the old crash. *)
      let ck = Exec.Checkpoint.open_ path in
      Exec.Checkpoint.record ck ~seed:2 (Netcore.Json.Int 20);
      Exec.Checkpoint.close ck;
      let entries = Exec.Checkpoint.load path in
      check int_t "record after the torn tail survives" 2 (List.length entries);
      check bool_t "both good seeds load" true
        (List.assoc 1 entries = Netcore.Json.Int 10
        && List.assoc 2 entries = Netcore.Json.Int 20);
      let _, stats = Durable.Store.read path in
      check int_t "torn line isolated and counted" 1
        stats.Durable.Store.corrupt)

let test_sweep_journal_resume () =
  with_temp (fun path ->
      let encode v = Netcore.Json.Int v in
      let decode = Netcore.Json.to_int in
      let seeds = Exec.Sweep.seeds ~base:40 ~n:8 in
      let calls = ref [] in
      let f seed =
        calls := seed :: !calls;
        seed * 3
      in
      let expected = List.map (fun s -> s * 3) seeds in
      (* First (interrupted) sweep: only half the seeds run. *)
      let j1 = Exec.Sweep.journal ~path ~encode ~decode () in
      let half = List.filteri (fun i _ -> i < 4) seeds in
      check (Alcotest.list int_t) "first half computed"
        (List.filteri (fun i _ -> i < 4) expected)
        (Exec.Sweep.run_seeds ~journal:j1 ~seeds:half f);
      Exec.Sweep.journal_close j1;
      (* Resume: journaled seeds are decoded, not re-run; the final list is
         identical to an uninterrupted sweep. *)
      calls := [];
      let j2 = Exec.Sweep.journal ~resume:true ~path ~encode ~decode () in
      check (Alcotest.list int_t) "journaled seeds loaded" half
        (Exec.Sweep.journaled_seeds j2);
      check (Alcotest.list int_t) "resumed results identical" expected
        (Exec.Sweep.run_seeds ~journal:j2 ~seeds f);
      Exec.Sweep.journal_close j2;
      check (Alcotest.list int_t) "only fresh seeds re-ran"
        (List.filteri (fun i _ -> i >= 4) seeds)
        (List.rev !calls);
      (* Opening without resume truncates: a fresh sweep re-runs everything. *)
      calls := [];
      let j3 = Exec.Sweep.journal ~path ~encode ~decode () in
      check (Alcotest.list int_t) "no seeds replayed after truncate" []
        (Exec.Sweep.journaled_seeds j3);
      ignore (Exec.Sweep.run_seeds ~journal:j3 ~seeds f);
      Exec.Sweep.journal_close j3;
      check int_t "every seed re-ran" (List.length seeds) (List.length !calls))

let test_sweep_journal_stale_codec () =
  with_temp (fun path ->
      (* A journal line the decoder rejects falls back to a fresh run
         instead of poisoning the sweep. *)
      let ck = Exec.Checkpoint.open_ ~truncate:true path in
      Exec.Checkpoint.record ck ~seed:1 (Netcore.Json.String "not an int");
      Exec.Checkpoint.record ck ~seed:2 (Netcore.Json.Int 222);
      Exec.Checkpoint.close ck;
      let j =
        Exec.Sweep.journal ~resume:true ~path ~encode:(fun v -> Netcore.Json.Int v)
          ~decode:Netcore.Json.to_int ()
      in
      let ran = ref [] in
      let f seed =
        ran := seed :: !ran;
        seed * 111
      in
      check (Alcotest.list int_t) "stale entry recomputed, good entry replayed"
        [ 111; 222 ]
        (Exec.Sweep.run_seeds ~journal:j ~seeds:[ 1; 2 ] f);
      Exec.Sweep.journal_close j;
      check (Alcotest.list int_t) "only the stale seed re-ran" [ 1 ] !ran)

let count_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let test_sweep_journal_lww () =
  with_temp (fun path ->
      (* The bug this pins: a journal holding several lines for one seed
         (an interrupted sweep re-completed it) must replay the LATEST
         line, re-run at most once when that line is stale, and not grow
         without bound across resume cycles. *)
      let ck = Exec.Checkpoint.open_ ~truncate:true path in
      Exec.Checkpoint.record ck ~seed:10 (Netcore.Json.Int 999);
      Exec.Checkpoint.record ck ~seed:11 (Netcore.Json.Int 33);
      (* The latest record for seed 10 is stale (undecodable). *)
      Exec.Checkpoint.record ck ~seed:10 (Netcore.Json.String "stale");
      Exec.Checkpoint.close ck;
      let encode v = Netcore.Json.Int v in
      let decode = Netcore.Json.to_int in
      let ran = ref [] in
      let f seed =
        ran := seed :: !ran;
        seed * 3
      in
      let j = Exec.Sweep.journal ~resume:true ~path ~encode ~decode () in
      check (Alcotest.list int_t) "latest line wins, stale one re-runs once"
        [ 30; 33 ]
        (Exec.Sweep.run_seeds ~journal:j ~seeds:[ 10; 11 ] f);
      Exec.Sweep.journal_close j;
      check (Alcotest.list int_t) "exactly one re-run" [ 10 ] !ran;
      (* The re-run appended its superseding record: 3 old lines + 1. *)
      check int_t "journal grew by the one re-run" 4 (count_lines path);
      (* Second resume: the superseding record decodes, nothing re-runs,
         and the journal size is stable. *)
      ran := [];
      let j = Exec.Sweep.journal ~resume:true ~path ~encode ~decode () in
      check (Alcotest.list int_t) "stable replay" [ 30; 33 ]
        (Exec.Sweep.run_seeds ~journal:j ~seeds:[ 10; 11 ] f);
      Exec.Sweep.journal_close j;
      check (Alcotest.list int_t) "no re-runs on the second resume" [] !ran;
      check int_t "journal size stable across resumes" 4 (count_lines path);
      (* Compaction drops the two superseded lines for seed 10. *)
      check bool_t "compact drops superseded lines" true
        (Exec.Checkpoint.compact path = (2, 2));
      check int_t "one line per seed after compaction" 2 (count_lines path))

(* A table hashes each key once per call: a miss looks the key up, checks
   it again and adds it, and an eviction removes it, all on one hash. *)
module Counted = struct
  let calls = Atomic.make 0

  type t = int

  let hash k =
    Atomic.incr calls;
    Hashtbl.hash k
end

module Counted_table = Netcore.Memo_table.Make (Counted)

let test_memo_hash_once () =
  let t = Counted_table.create ~name:"counted" ~cap:8 in
  let hashes f =
    let before = Atomic.get Counted.calls in
    f ();
    Atomic.get Counted.calls - before
  in
  let ask k = ignore (Counted_table.find t k (fun () -> k * 2) : int) in
  check int_t "a miss hashes once" 1 (hashes (fun () -> ask 1));
  check int_t "a hit hashes once" 1 (hashes (fun () -> ask 1));
  for k = 2 to 8 do
    ask k
  done;
  check int_t "a miss that evicts hashes once" 1 (hashes (fun () -> ask 9));
  let s = Netcore.Memo_table.stats "counted" in
  check int_t "evicted one" 1 s.Netcore.Memo_table.evictions;
  check int_t "entries" 8 s.Netcore.Memo_table.entries;
  check int_t "hits" 1 s.Netcore.Memo_table.hits;
  check int_t "misses" 9 s.Netcore.Memo_table.misses;
  check int_t "the evicted key is gone" 1 (hashes (fun () -> ask 1));
  check int_t "and was a miss" 10 (Netcore.Memo_table.stats "counted").Netcore.Memo_table.misses

(* Domains that miss on one key race to compute it, and only one stores it.
   A table counts a miss per stored value and a hit otherwise, so its
   counters add up under any schedule: misses equal entries plus
   evictions, and every lookup counts once. *)
module Race_table = Netcore.Memo_table.Make (struct
  type t = int

  let hash = Hashtbl.hash
end)

let test_memo_counts_under_races () =
  let t = Race_table.create ~name:"race" ~cap:16 in
  let slow k () =
    for _ = 1 to 2_000 do
      Domain.cpu_relax ()
    done;
    2 * k
  in
  let jobs = 8 and keys = 24 in
  ignore
    (Exec.Pool.map pool
       (fun _ ->
         for k = 0 to keys - 1 do
           ignore (Race_table.find t k (slow k) : int)
         done)
       (List.init jobs Fun.id));
  let s = Netcore.Memo_table.stats "race" in
  check int_t "misses = entries + evictions"
    (s.Netcore.Memo_table.entries + s.Netcore.Memo_table.evictions)
    s.Netcore.Memo_table.misses;
  check int_t "every lookup counted once" (jobs * keys)
    (s.Netcore.Memo_table.hits + s.Netcore.Memo_table.misses);
  (match Race_table.find t 99 (fun () -> failwith "no value") with
  | _ -> Alcotest.fail "the computation's exception must propagate"
  | exception Failure _ -> ());
  check bool_t "a raising computation counts nothing" true
    (Netcore.Memo_table.stats "race" = s)

(* ------------------------------------------------------------------ *)
(* Serve: length-prefixed JSON over a Unix-domain socket               *)
(* ------------------------------------------------------------------ *)

let test_serve_roundtrip () =
  let dir = Filename.temp_file "cosynth_serve_" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let socket_path = Filename.concat dir "test.sock" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove socket_path with _ -> ());
      try Sys.rmdir dir with _ -> ())
    (fun () ->
      let module J = Netcore.Json in
      let handle ~client req =
        match Option.bind (J.member "job" req) J.to_str with
        | Some "echo" ->
            Exec.Serve.Reply
              (J.Obj
                 [
                   ("ok", J.Bool true);
                   ("client", J.Int client);
                   ("payload", Option.value ~default:J.Null (J.member "payload" req));
                 ])
        | Some "boom" -> failwith "handler exploded"
        | Some "stop" -> Exec.Serve.Final (J.Obj [ ("ok", J.Bool true) ])
        | _ -> Exec.Serve.Reply (J.Obj [ ("ok", J.Bool false) ])
      in
      let server =
        Thread.create (fun () -> Exec.Serve.serve ~socket_path ~handle ()) ()
      in
      let ok r = Option.bind (J.member "ok" r) J.to_bool = Some true in
      (* Several requests on one connection; a big payload crosses any
         single read(2) boundary so the framing is really exercised. *)
      let big = String.make 100_000 'x' in
      Exec.Serve.with_connection ~socket_path (fun fd ->
          let r1 =
            Exec.Serve.request fd
              (J.Obj [ ("job", J.String "echo"); ("payload", J.Int 42) ])
          in
          check bool_t "echo ok" true (ok r1);
          check bool_t "payload round-trips" true
            (J.member "payload" r1 = Some (J.Int 42));
          let r2 =
            Exec.Serve.request fd
              (J.Obj [ ("job", J.String "echo"); ("payload", J.String big) ])
          in
          check bool_t "100kB payload round-trips" true
            (J.member "payload" r2 = Some (J.String big));
          (* A handler crash answers THIS request as an error frame and the
             connection keeps working. *)
          let r3 = Exec.Serve.request fd (J.Obj [ ("job", J.String "boom") ]) in
          check bool_t "handler crash becomes an error reply" true (not (ok r3));
          let r4 =
            Exec.Serve.request fd
              (J.Obj [ ("job", J.String "echo"); ("payload", J.Bool true) ])
          in
          check bool_t "connection alive after the crash" true (ok r4));
      (* A second client gets a distinct id, then stops the server. *)
      Exec.Serve.with_connection ~socket_path (fun fd ->
          let r = Exec.Serve.request fd (J.Obj [ ("job", J.String "echo") ]) in
          check bool_t "second client has a new id" true
            (J.member "client" r = Some (J.Int 1));
          let r = Exec.Serve.request fd (J.Obj [ ("job", J.String "stop") ]) in
          check bool_t "final reply delivered" true (ok r));
      Thread.join server;
      check bool_t "socket file removed on shutdown" true
        (not (Sys.file_exists socket_path)))

(* Shared scaffolding for the lifecycle tests: a temp socket dir and a
   handler with an `echo` job, a `slow` job (the in-flight work a drain
   must not lose) and a `drain` job. *)
let with_serve_dir f =
  let dir = Filename.temp_file "cosynth_serve_" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let socket_path = Filename.concat dir "test.sock" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove socket_path with _ -> ());
      try Sys.rmdir dir with _ -> ())
    (fun () -> f socket_path)

let lifecycle_handle ~client:_ req =
  let module J = Netcore.Json in
  match Option.bind (J.member "job" req) J.to_str with
  | Some "echo" -> Exec.Serve.Reply (J.Obj [ ("ok", J.Bool true) ])
  | Some "slow" ->
      Thread.delay 0.3;
      Exec.Serve.Reply (J.Obj [ ("ok", J.Bool true); ("slow", J.Bool true) ])
  | Some "drain" ->
      Exec.Serve.Drain (J.Obj [ ("ok", J.Bool true); ("draining", J.Bool true) ])
  | _ -> Exec.Serve.Reply (J.Obj [ ("ok", J.Bool false) ])

let test_serve_drain () =
  with_serve_dir (fun socket_path ->
      let module J = Netcore.Json in
      let drained = ref false in
      let server =
        Thread.create
          (fun () ->
            drained :=
              Exec.Serve.serve ~socket_path ~handle:lifecycle_handle
                ~drain_grace_ms:1_000 ())
          ()
      in
      (* A slow job is in flight when the drain lands; its reply must
         still arrive — drain stops NEW work, never accepted work. *)
      let slow_reply = ref None in
      let slow_client =
        Thread.create
          (fun () ->
            slow_reply :=
              Some
                (Exec.Serve.with_connection ~socket_path (fun fd ->
                     Exec.Serve.request fd (J.Obj [ ("job", J.String "slow") ]))))
          ()
      in
      Thread.delay 0.05;
      Exec.Serve.with_connection ~socket_path (fun fd ->
          let d = Exec.Serve.request fd (J.Obj [ ("job", J.String "drain") ]) in
          check bool_t "drain job acks with draining:true" true
            (Option.bind (J.member "draining" d) J.to_bool = Some true);
          (* The same connection is still open, but the server is now
             draining: the next request gets the structured reject, not a
             hang or a slammed socket. *)
          let r = Exec.Serve.request fd (J.Obj [ ("job", J.String "echo") ]) in
          check bool_t "mid-drain request rejected with a structured frame"
            true
            (Option.bind (J.member "ok" r) J.to_bool = Some false
            && Option.bind (J.member "draining" r) J.to_bool = Some true));
      Thread.join slow_client;
      (match !slow_reply with
      | Some r ->
          check bool_t "in-flight job completed across the drain" true
            (Option.bind (J.member "slow" r) J.to_bool = Some true)
      | None -> Alcotest.fail "in-flight job lost its reply");
      Thread.join server;
      check bool_t "serve returned drained=true" true !drained;
      check bool_t "socket unlinked after drain" true
        (not (Sys.file_exists socket_path)))

let test_serve_sigterm_drain () =
  with_serve_dir (fun socket_path ->
      let module J = Netcore.Json in
      let drained = ref false in
      let server =
        Thread.create
          (fun () ->
            drained :=
              Exec.Serve.serve ~socket_path ~handle:lifecycle_handle
                ~handle_signals:true ~drain_grace_ms:300 ())
          ()
      in
      Exec.Serve.with_connection ~socket_path (fun fd ->
          let r = Exec.Serve.request fd (J.Obj [ ("job", J.String "echo") ]) in
          check bool_t "server up before the signal" true
            (Option.bind (J.member "ok" r) J.to_bool = Some true));
      (* SIGTERM from outside the accept loop: the handler must break the
         blocked accept and start a drain, exactly like `kill <daemon>`. *)
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      Thread.join server;
      check bool_t "SIGTERM drained the server" true !drained;
      check bool_t "socket unlinked after SIGTERM" true
        (not (Sys.file_exists socket_path)))

let test_serve_connect_backoff () =
  with_serve_dir (fun socket_path ->
      let module J = Netcore.Json in
      (* No server: the budget bounds the retry loop. *)
      let t0 = Unix.gettimeofday () in
      (match Exec.Serve.with_connection ~total_budget_ms:200 ~socket_path ignore with
      | () -> Alcotest.fail "connect succeeded with no server listening"
      | exception Failure _ -> ());
      let waited = Unix.gettimeofday () -. t0 in
      check bool_t "gave up within ~2x the budget" true (waited < 2.0);
      check bool_t "kept retrying for most of the budget" true (waited > 0.1);
      (* Server appears mid-budget: backoff rides it out and connects —
         the startup race a supervised respawn makes routine. *)
      let server =
        Thread.create
          (fun () ->
            Thread.delay 0.2;
            ignore
              (Exec.Serve.serve ~socket_path ~handle:lifecycle_handle ()
                : bool))
          ()
      in
      Exec.Serve.with_connection ~total_budget_ms:3_000 ~socket_path (fun fd ->
          let r = Exec.Serve.request fd (J.Obj [ ("job", J.String "echo") ]) in
          check bool_t "connected once the server came up" true
            (Option.bind (J.member "ok" r) J.to_bool = Some true);
          ignore
            (Exec.Serve.request fd (J.Obj [ ("job", J.String "drain") ])
              : J.t));
      Thread.join server)

let test_serve_overloaded_raises () =
  with_serve_dir (fun socket_path ->
      let module J = Netcore.Json in
      let handle ~client:_ req =
        match Option.bind (J.member "job" req) J.to_str with
        | Some "drain" -> Exec.Serve.Drain (J.Obj [ ("ok", J.Bool true) ])
        | _ ->
            Exec.Serve.Reply
              (J.Obj
                 [
                   ("ok", J.Bool false);
                   ("error", J.String "overloaded: capacity");
                   ("shed", J.Bool true);
                   ("retry_after_ms", J.Int 75);
                 ])
      in
      let server =
        Thread.create
          (fun () -> ignore (Exec.Serve.serve ~socket_path ~handle () : bool))
          ()
      in
      Exec.Serve.with_connection ~socket_path (fun fd ->
          (match Exec.Serve.request fd (J.Obj [ ("job", J.String "work") ]) with
          | _ -> Alcotest.fail "shed frame did not raise Server_overloaded"
          | exception Exec.Serve.Server_overloaded { retry_after_ms } ->
              check int_t "retry hint decoded" 75 retry_after_ms);
          ignore
            (Exec.Serve.request fd (J.Obj [ ("job", J.String "drain") ]) : J.t));
      Thread.join server)

(* The retrying request rides out k sheds with k <= retries, one
   [on_retry] per shed, and surfaces the shed past its last retry. *)
let test_serve_request_retrying () =
  with_serve_dir (fun socket_path ->
      let module J = Netcore.Json in
      let sheds_left = Atomic.make 0 in
      let handle ~client:_ req =
        match Option.bind (J.member "job" req) J.to_str with
        | Some "stop" -> Exec.Serve.Final (J.Obj [ ("ok", J.Bool true) ])
        | _ when Atomic.fetch_and_add sheds_left (-1) > 0 ->
            Exec.Serve.Reply
              (J.Obj
                 [
                   ("ok", J.Bool false);
                   ("shed", J.Bool true);
                   ("retry_after_ms", J.Int 1);
                 ])
        | _ -> Exec.Serve.Reply (J.Obj [ ("ok", J.Bool true) ])
      in
      let server =
        Thread.create
          (fun () -> ignore (Exec.Serve.serve ~socket_path ~handle () : bool))
          ()
      in
      let work = J.Obj [ ("job", J.String "work") ] in
      Exec.Serve.with_connection ~socket_path (fun fd ->
          List.iter
            (fun k ->
              Atomic.set sheds_left k;
              let retried = ref 0 in
              match
                Exec.Serve.request_retrying ~retries:2
                  ~on_retry:(fun () -> incr retried)
                  fd work
              with
              | r ->
                  check bool_t "answered within the retries" true (k <= 2);
                  check bool_t "the answer is the handler's" true
                    (J.member "ok" r = Some (J.Bool true));
                  check int_t "one retry per shed" k !retried
              | exception Exec.Serve.Server_overloaded { retry_after_ms } ->
                  check bool_t "shed past the last retry surfaces" true (k > 2);
                  check int_t "the surfaced shed keeps its hint" 1 retry_after_ms;
                  check int_t "every retry spent" 2 !retried)
            [ 0; 1; 2; 3 ];
          ignore (Exec.Serve.request fd (J.Obj [ ("job", J.String "stop") ]) : J.t));
      Thread.join server)

(* A client that hangs up before its reply must cost only itself: the
   reply write fails with EPIPE inside its client loop instead of a SIGPIPE
   killing the daemon and every other client with it. *)
let test_serve_survives_vanished_peer () =
  with_serve_dir (fun socket_path ->
      let module J = Netcore.Json in
      let cfg = { Cosynth.Service.default_config with Cosynth.Service.domains = Some 1 } in
      let server =
        Thread.create
          (fun () ->
            ignore (Cosynth.Service.serve ~socket_path cfg : Cosynth.Service.summary))
          ()
      in
      Exec.Serve.with_connection ~total_budget_ms:3_000 ~socket_path (fun fd ->
          Exec.Serve.write_frame fd (J.Obj [ ("job", J.String "synth"); ("routers", J.Int 5) ]));
      Exec.Serve.with_connection ~socket_path (fun fd ->
          let field k r = Option.value ~default:0 (Option.bind (J.member k r) J.to_int) in
          (* [served] counts every request, these polls included: the synth
             job has been taken once [served] runs ahead of the polls, and
             it has settled once nothing is in flight. *)
          let rec settle polls =
            let h = Exec.Serve.request fd (J.Obj [ ("job", J.String "health") ]) in
            if (field "served" h <= polls || field "in_flight" h > 0) && polls < 500 then begin
              Thread.delay 0.01;
              settle (polls + 1)
            end
          in
          settle 1;
          (* The reply to the vanished peer is written right after. *)
          Thread.delay 0.1);
      Exec.Serve.with_connection ~socket_path (fun fd ->
          let r = Exec.Serve.request fd (J.Obj [ ("job", J.String "ping") ]) in
          check bool_t "a second connection still gets its pong" true
            (Option.bind (J.member "pong" r) J.to_bool = Some true);
          ignore (Exec.Serve.request fd (J.Obj [ ("job", J.String "shutdown") ]) : J.t));
      Thread.join server)

(* [stats] reports the parse memo under [memo], as before, Campion's
   answers under [campion_memo] and its diff tables under [diff_memo]; a
   translate job looks both up there. The tables start empty: a draft
   Campion has answered before asks the diff tables nothing. *)
let test_serve_stats_diff_memo () =
  Exec.Memo.reset ();
  with_serve_dir (fun socket_path ->
      let module J = Netcore.Json in
      let cfg = { Cosynth.Service.default_config with Cosynth.Service.domains = Some 1 } in
      let server =
        Thread.create
          (fun () ->
            ignore (Cosynth.Service.serve ~socket_path cfg : Cosynth.Service.summary))
          ()
      in
      Exec.Serve.with_connection ~socket_path (fun fd ->
          let stats () = Exec.Serve.request fd (J.Obj [ ("job", J.String "stats") ]) in
          let field obj k r =
            Option.bind (J.member obj r) (fun o -> Option.bind (J.member k o) J.to_int)
          in
          let lookups ?(obj = "diff_memo") r =
            match (field obj "hits" r, field obj "misses" r) with
            | Some h, Some m -> h + m
            | _ -> Alcotest.fail ("stats has no " ^ obj ^ " hits and misses")
          in
          let before = stats () in
          List.iter
            (fun k ->
              check bool_t ("memo keeps " ^ k) true (field "memo" k before <> None);
              check bool_t ("diff_memo has " ^ k) true (field "diff_memo" k before <> None);
              check bool_t ("campion_memo has " ^ k) true
                (field "campion_memo" k before <> None))
            [ "hits"; "misses"; "entries"; "evictions" ];
          let r =
            Exec.Serve.request fd (J.Obj [ ("job", J.String "translate"); ("seed", J.Int 7) ])
          in
          check bool_t "translate answered" true
            (Option.bind (J.member "ok" r) J.to_bool = Some true);
          let after = stats () in
          check bool_t "diff lookups grow after a translate job" true
            (lookups after > lookups before);
          check bool_t "answer lookups grow after a translate job" true
            (lookups ~obj:"campion_memo" after > lookups ~obj:"campion_memo" before);
          ignore (Exec.Serve.request fd (J.Obj [ ("job", J.String "shutdown") ]) : J.t));
      Thread.join server)

(* The stats reply reports the Search Route Policies verdict table under
   [verdict_memo]; a synth job checks its hub there. *)
let test_serve_stats_verdict_memo () =
  with_serve_dir (fun socket_path ->
      let module J = Netcore.Json in
      let cfg = { Cosynth.Service.default_config with Cosynth.Service.domains = Some 1 } in
      let server =
        Thread.create
          (fun () ->
            ignore (Cosynth.Service.serve ~socket_path cfg : Cosynth.Service.summary))
          ()
      in
      Exec.Serve.with_connection ~socket_path (fun fd ->
          let stats () = Exec.Serve.request fd (J.Obj [ ("job", J.String "stats") ]) in
          let field k r =
            Option.bind (J.member "verdict_memo" r) (fun o -> Option.bind (J.member k o) J.to_int)
          in
          let lookups r =
            match (field "hits" r, field "misses" r) with
            | Some h, Some m -> h + m
            | _ -> Alcotest.fail "stats has no verdict_memo hits and misses"
          in
          let before = stats () in
          List.iter
            (fun k -> check bool_t ("verdict_memo has " ^ k) true (field k before <> None))
            [ "hits"; "misses"; "entries"; "evictions" ];
          let r =
            Exec.Serve.request fd
              (J.Obj [ ("job", J.String "synth"); ("seed", J.Int 7); ("routers", J.Int 5) ])
          in
          check bool_t "synth answered" true
            (Option.bind (J.member "ok" r) J.to_bool = Some true);
          check bool_t "verdict lookups grow after a synth job" true
            (lookups (stats ()) > lookups before);
          ignore (Exec.Serve.request fd (J.Obj [ ("job", J.String "shutdown") ]) : J.t));
      Thread.join server)

(* The stats reply reports the render table under [render_memo], the
   whole-network verdicts under [global_memo] and the topology answers under
   [topology_memo]; a synth job drafts and checks every router and checks
   the network there. *)
let test_serve_stats_render_global_memo () =
  with_serve_dir (fun socket_path ->
      let module J = Netcore.Json in
      let cfg = { Cosynth.Service.default_config with Cosynth.Service.domains = Some 1 } in
      let server =
        Thread.create
          (fun () ->
            ignore (Cosynth.Service.serve ~socket_path cfg : Cosynth.Service.summary))
          ()
      in
      Exec.Serve.with_connection ~socket_path (fun fd ->
          let stats () = Exec.Serve.request fd (J.Obj [ ("job", J.String "stats") ]) in
          let field obj k r =
            Option.bind (J.member obj r) (fun o -> Option.bind (J.member k o) J.to_int)
          in
          let lookups obj r =
            match (field obj "hits" r, field obj "misses" r) with
            | Some h, Some m -> h + m
            | _ -> Alcotest.fail ("stats has no " ^ obj ^ " hits and misses")
          in
          let before = stats () in
          List.iter
            (fun obj ->
              List.iter
                (fun k -> check bool_t (obj ^ " has " ^ k) true (field obj k before <> None))
                [ "hits"; "misses"; "entries"; "evictions" ])
            [ "render_memo"; "global_memo"; "topology_memo" ];
          let r =
            Exec.Serve.request fd
              (J.Obj [ ("job", J.String "synth"); ("seed", J.Int 7); ("routers", J.Int 5) ])
          in
          check bool_t "synth answered" true
            (Option.bind (J.member "ok" r) J.to_bool = Some true);
          let after = stats () in
          List.iter
            (fun obj ->
              check bool_t (obj ^ " lookups grow after a synth job") true
                (lookups obj after > lookups obj before))
            [ "render_memo"; "global_memo"; "topology_memo" ];
          ignore (Exec.Serve.request fd (J.Obj [ ("job", J.String "shutdown") ]) : J.t));
      Thread.join server)

(* ------------------------------------------------------------------ *)
(* Sweep: certificate-aware budgeted scheduling                        *)
(* ------------------------------------------------------------------ *)

let test_sweep_budgeted () =
  (* 4 seeds sharing 20 prompts. Fair share starts at 5; seed 11 abandons
     after spending 2, so its unspent 3 flow forward and seed 12's share
     rises to 6. The spend log pins the whole allocation schedule. *)
  let log = ref [] in
  let behave = [ (10, (5, false)); (11, (2, true)); (12, (6, false)); (13, (4, false)) ] in
  let results, stats =
    Exec.Sweep.run_seeds_budgeted ~budget:20 ~seeds:[ 10; 11; 12; 13 ]
      (fun ~seed ~max_prompts ->
        log := (seed, max_prompts) :: !log;
        let want, abandoned = List.assoc seed behave in
        let spent = min want max_prompts in
        (seed * 2, { Exec.Sweep.spent; abandoned }))
  in
  check (Alcotest.list int_t) "results in seed order" [ 20; 22; 24; 26 ] results;
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "fair-share allocations reflect the reclaim"
    [ (10, 5); (11, 5); (12, 6); (13, 7) ]
    (List.rev !log);
  check int_t "spent sums the actual spends" 17 stats.Exec.Sweep.spent;
  check int_t "one run abandoned early" 1 stats.Exec.Sweep.abandoned_early;
  check int_t "its unspent allocation was reclaimed" 3 stats.Exec.Sweep.reclaimed;
  check int_t "budget echoed" 20 stats.Exec.Sweep.budget

let test_sweep_budgeted_overspend_clamped () =
  (* A run reporting more than its allocation (a driver bug) must not
     starve later seeds: the recorded spend is clamped to the allocation
     and every seed still gets at least 1 prompt. *)
  let allocs = ref [] in
  let _, stats =
    Exec.Sweep.run_seeds_budgeted ~budget:10 ~seeds:[ 1; 2; 3; 4 ]
      (fun ~seed:_ ~max_prompts ->
        allocs := max_prompts :: !allocs;
        ((), { Exec.Sweep.spent = 1_000; abandoned = false }))
  in
  check (Alcotest.list int_t) "fair-share allocations" [ 2; 2; 3; 3 ]
    (List.rev !allocs);
  check int_t "spent clamped to the budget" 10 stats.Exec.Sweep.spent;
  check int_t "nothing reclaimed without abandonment" 0
    stats.Exec.Sweep.reclaimed

(* ------------------------------------------------------------------ *)
(* Global phase: counterexample feedback to the hub                    *)
(* ------------------------------------------------------------------ *)

let crossed =
  [
    Llmsim.Fault.make Llmsim.Error_class.Crossed_policy_attachment
      Llmsim.Fault.Whole_config;
  ]

let global_events (r : Cosynth.Driver.synthesis_result) =
  List.filter
    (fun (e : Cosynth.Driver.event) -> e.Cosynth.Driver.note = "global")
    r.Cosynth.Driver.transcript.Cosynth.Driver.events

let test_global_phase_fires () =
  (* A crossed policy attachment survives every local check; the global
     counterexample prompt must fire and eventually repair the hub. *)
  let r = Cosynth.Driver.run_no_transit ~seed:5 ~force_hub_faults:crossed ~routers:5 () in
  check bool_t "global feedback fired" true (global_events r <> []);
  check bool_t "run converged" true r.Cosynth.Driver.global_ok

(* ------------------------------------------------------------------ *)
(* Leverage edge cases                                                 *)
(* ------------------------------------------------------------------ *)

let transcript ~auto ~human =
  {
    Cosynth.Driver.events = [];
    human_prompts = human;
    auto_prompts = auto;
    converged = true;
    rounds = 0;
    certificate = None;
  }

let test_leverage_zero_human () =
  check bool_t "auto>0, human=0 is infinite" true
    (Cosynth.Driver.leverage (transcript ~auto:20 ~human:0) = Float.infinity);
  check bool_t "empty transcript is 0" true
    (Cosynth.Driver.leverage (transcript ~auto:0 ~human:0) = 0.);
  check bool_t "normal ratio" true
    (Cosynth.Driver.leverage (transcript ~auto:20 ~human:2) = 10.)

let test_summarize_absorbs_infinity () =
  let ts =
    [ transcript ~auto:10 ~human:2; transcript ~auto:20 ~human:0; transcript ~auto:12 ~human:2 ]
  in
  let s = Cosynth.Metrics.summarize ts in
  check int_t "runs" 3 s.Cosynth.Metrics.runs;
  check int_t "infinite runs counted" 1 s.Cosynth.Metrics.infinite_leverage;
  check bool_t "mean finite" true (Float.is_finite s.Cosynth.Metrics.mean_leverage);
  check bool_t "stddev finite" true (Float.is_finite s.Cosynth.Metrics.stddev_leverage);
  check bool_t "mean over finite runs" true
    (abs_float (s.Cosynth.Metrics.mean_leverage -. 5.5) < 1e-9);
  check bool_t "max finite" true (s.Cosynth.Metrics.max_leverage = 6.);
  let all_inf = Cosynth.Metrics.summarize [ transcript ~auto:4 ~human:0 ] in
  check bool_t "all-infinite mean is 0" true (all_inf.Cosynth.Metrics.mean_leverage = 0.);
  check int_t "all-infinite counted" 1 all_inf.Cosynth.Metrics.infinite_leverage

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map ordering" `Quick test_pool_map_ordering;
          Alcotest.test_case "map exception" `Quick test_pool_map_exception;
          Alcotest.test_case "nested map" `Quick test_pool_nested_map;
          Alcotest.test_case "sequential fallback" `Quick test_pool_sequential_fallback;
          Alcotest.test_case "stats" `Quick test_pool_stats;
        ] );
      ( "sweep-determinism",
        [
          Alcotest.test_case "translation parallel == sequential" `Slow
            test_sweep_translation_deterministic;
          Alcotest.test_case "no-transit parallel == sequential" `Slow
            test_sweep_no_transit_deterministic;
          Alcotest.test_case "per-router fan-out == sequential" `Slow
            test_run_no_transit_pool_equals_sequential;
        ] );
      ( "memo",
        [
          Alcotest.test_case "matches uncached" `Quick test_memo_matches_uncached;
          Alcotest.test_case "hit accounting" `Quick test_memo_hits;
          Alcotest.test_case "a carried hash hits on equal text" `Quick test_memo_carried_hash;
          Alcotest.test_case "thread safe" `Quick test_memo_thread_safe;
          Alcotest.test_case "one hash per call" `Quick test_memo_hash_once;
          Alcotest.test_case "counters add up under racing domains" `Quick
            test_memo_counts_under_races;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "rate-0 identity" `Quick test_supervisor_rate0_identity;
          Alcotest.test_case "exception boundary" `Quick
            test_supervisor_exception_boundary;
          Alcotest.test_case "deterministic abandonment" `Quick
            test_supervisor_abandonment_deterministic;
          Alcotest.test_case "worker domains restart" `Quick
            test_supervisor_restarts_worker;
          Alcotest.test_case "in-flight loss" `Quick test_supervisor_in_flight_loss;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip, latest wins" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "partial line tolerated" `Quick
            test_checkpoint_partial_line_tolerated;
          Alcotest.test_case "compaction" `Quick test_checkpoint_compact;
          Alcotest.test_case "CRC framing on every line" `Quick
            test_checkpoint_framing;
          Alcotest.test_case "legacy bare-JSON journals load" `Quick
            test_checkpoint_legacy_loads;
          Alcotest.test_case "torn tail sealed on reopen" `Quick
            test_checkpoint_torn_tail_sealed;
          Alcotest.test_case "sweep resume" `Quick test_sweep_journal_resume;
          Alcotest.test_case "stale codec recomputes" `Quick
            test_sweep_journal_stale_codec;
          Alcotest.test_case "last write wins across resumes" `Quick
            test_sweep_journal_lww;
          Alcotest.test_case "budgeted schedule reclaims abandoned budget" `Quick
            test_sweep_budgeted;
          Alcotest.test_case "budgeted schedule clamps overspend" `Quick
            test_sweep_budgeted_overspend_clamped;
        ] );
      ( "serve",
        [
          Alcotest.test_case "socket round-trip" `Quick test_serve_roundtrip;
          Alcotest.test_case "drain keeps in-flight work, rejects new" `Quick
            test_serve_drain;
          Alcotest.test_case "SIGTERM drains" `Quick test_serve_sigterm_drain;
          Alcotest.test_case "connect backoff within a budget" `Quick
            test_serve_connect_backoff;
          Alcotest.test_case "shed frame raises Server_overloaded" `Quick
            test_serve_overloaded_raises;
          Alcotest.test_case "retrying request honours sheds up to N" `Quick
            test_serve_request_retrying;
          Alcotest.test_case "peer gone before its reply" `Quick
            test_serve_survives_vanished_peer;
          Alcotest.test_case "stats count diff-memo lookups" `Quick
            test_serve_stats_diff_memo;
          Alcotest.test_case "stats count verdict-memo lookups" `Quick
            test_serve_stats_verdict_memo;
          Alcotest.test_case "stats count render- and global-memo lookups" `Quick
            test_serve_stats_render_global_memo;
        ] );
      ( "global-phase",
        [
          Alcotest.test_case "fires on crossed attachment" `Quick test_global_phase_fires;
        ] );
      ( "leverage",
        [
          Alcotest.test_case "zero human prompts" `Quick test_leverage_zero_human;
          Alcotest.test_case "summarize absorbs infinity" `Quick
            test_summarize_absorbs_infinity;
        ] );
    ]
