(* Tests for the resilience layer (lib/resilience): retry backoff, the
   circuit breaker state machine, the seeded chaos injector, the runtime
   call paths, and the driver-level guarantees — pay-for-what-you-use
   (rate-0 transcripts identical to the unwrapped loops), chaos-run
   determinism (including pooled fan-out), budget exhaustion, and the
   success-only memo contract. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let cisco_text = Cisco.Samples.border_router

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

let test_retry_deterministic () =
  let seq seed =
    let rng = Netcore.Rng.make seed in
    List.init 10 (fun i ->
        Resilience.Retry.backoff Resilience.Retry.default rng ~failures:(i + 1))
  in
  check (Alcotest.list int_t) "same seed, same backoffs" (seq 7) (seq 7);
  check bool_t "different seeds explore different jitter" true (seq 7 <> seq 8)

let test_retry_bounds () =
  let p = Resilience.Retry.default in
  let rng = Netcore.Rng.make 3 in
  for failures = 1 to 12 do
    let exp =
      min p.Resilience.Retry.max_backoff
        (p.Resilience.Retry.base_backoff * (1 lsl min (failures - 1) 20))
    in
    let cap =
      exp + int_of_float (p.Resilience.Retry.jitter *. float_of_int exp)
    in
    let b = Resilience.Retry.backoff p rng ~failures in
    if b < exp || b > cap then
      Alcotest.failf "backoff %d out of [%d, %d] after %d failures" b exp cap
        failures
  done

(* ------------------------------------------------------------------ *)
(* Breaker                                                             *)
(* ------------------------------------------------------------------ *)

let breaker_policy = { Resilience.Breaker.failure_threshold = 3; cooldown = 10 }

let state_t =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with
        | Resilience.Breaker.Closed -> "closed"
        | Open -> "open"
        | Half_open -> "half-open"))
    ( = )

let test_breaker_trips_and_recovers () =
  let b = Resilience.Breaker.create breaker_policy in
  check state_t "starts closed" Resilience.Breaker.Closed (Resilience.Breaker.state b);
  check bool_t "failure 1" false (Resilience.Breaker.record_failure b ~now:0);
  check bool_t "failure 2" false (Resilience.Breaker.record_failure b ~now:1);
  check bool_t "failure 3 trips" true (Resilience.Breaker.record_failure b ~now:2);
  check state_t "open" Resilience.Breaker.Open (Resilience.Breaker.state b);
  check int_t "one trip" 1 (Resilience.Breaker.trips b);
  (match Resilience.Breaker.acquire b ~now:5 with
  | `Reject -> ()
  | `Proceed -> Alcotest.fail "open breaker must reject inside the cooldown");
  check bool_t "cooldown counts down" true
    (Resilience.Breaker.cooldown_left b ~now:5 > 0);
  (match Resilience.Breaker.acquire b ~now:12 with
  | `Proceed -> ()
  | `Reject -> Alcotest.fail "cooldown elapsed: must allow a half-open trial");
  check state_t "half-open" Resilience.Breaker.Half_open (Resilience.Breaker.state b);
  Resilience.Breaker.record_success b;
  check state_t "success closes" Resilience.Breaker.Closed (Resilience.Breaker.state b);
  check int_t "trips unchanged by recovery" 1 (Resilience.Breaker.trips b)

let test_breaker_half_open_failure_retrips () =
  let b = Resilience.Breaker.create breaker_policy in
  for now = 0 to 2 do
    ignore (Resilience.Breaker.record_failure b ~now)
  done;
  (match Resilience.Breaker.acquire b ~now:20 with
  | `Proceed -> ()
  | `Reject -> Alcotest.fail "expected a half-open trial");
  check bool_t "half-open failure re-trips" true
    (Resilience.Breaker.record_failure b ~now:20);
  check state_t "open again" Resilience.Breaker.Open (Resilience.Breaker.state b);
  check int_t "two trips" 2 (Resilience.Breaker.trips b)

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

let outcomes chaos ~salt ~n =
  let clock = Resilience.Clock.create () in
  let v = Resilience.Verifier.wrap Resilience.Verifier.Parse_check (fun x -> x * 2) in
  Resilience.Chaos.arm chaos ~salt ~clock v;
  List.init n (fun i ->
      Resilience.Clock.advance clock 1;
      match Resilience.Verifier.run v i with
      | Ok o -> Printf.sprintf "ok %d" o
      | Error f -> Resilience.Verifier.failure_to_string f)

let test_chaos_deterministic () =
  let chaos =
    Resilience.Chaos.make ~crash_rate:0.2 ~timeout_rate:0.2 ~flake_rate:0.2 ~seed:11 ()
  in
  check (Alcotest.list Alcotest.string) "same (seed, salt): same schedule"
    (outcomes chaos ~salt:5 ~n:60) (outcomes chaos ~salt:5 ~n:60);
  check bool_t "different salts: different schedules" true
    (outcomes chaos ~salt:5 ~n:60 <> outcomes chaos ~salt:6 ~n:60)

let test_chaos_none_is_noop () =
  let clock = Resilience.Clock.create () in
  let v = Resilience.Verifier.wrap Resilience.Verifier.Campion (fun x -> x + 1) in
  Resilience.Chaos.arm (Resilience.Chaos.make ~seed:3 ()) ~salt:0 ~clock v;
  check bool_t "is_none" true
    (Resilience.Chaos.describe (Resilience.Chaos.make ~seed:3 ()) = "no faults");
  (match Resilience.Verifier.run v 41 with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "all-zero chaos must leave the Ok-oracle fast path")

let test_chaos_crash_window () =
  let chaos = Resilience.Chaos.make ~crash_rate:1.0 ~seed:1 () in
  let clock = Resilience.Clock.create () in
  let v = Resilience.Verifier.wrap Resilience.Verifier.Topology (fun () -> ()) in
  Resilience.Chaos.arm chaos ~salt:0 ~clock v;
  (match Resilience.Verifier.run v () with
  | Error (Resilience.Verifier.Crashed { down_ticks }) ->
      check bool_t "outage window in [8, 24]" true (down_ticks >= 8 && down_ticks <= 24);
      (* Inside the window every call keeps failing, and the remaining
         window shrinks as the clock advances. *)
      Resilience.Clock.advance clock 1;
      (match Resilience.Verifier.run v () with
      | Error (Resilience.Verifier.Crashed { down_ticks = left }) ->
          check int_t "window shrinks with the clock" (down_ticks - 1) left
      | _ -> Alcotest.fail "call inside the outage window must fail")
  | _ -> Alcotest.fail "crash rate 1.0 must crash the first call")

let test_chaos_truncate_never_passes () =
  let chaos = Resilience.Chaos.make ~truncate_rate:1.0 ~seed:4 () in
  let clock = Resilience.Clock.create () in
  let v =
    Resilience.Verifier.wrap Resilience.Verifier.Route_policies (fun () -> [ "finding" ])
  in
  Resilience.Chaos.arm chaos ~salt:0 ~clock v;
  for _ = 1 to 20 do
    match Resilience.Verifier.run v () with
    | Error Resilience.Verifier.Truncated -> ()
    | Ok _ -> Alcotest.fail "a truncated response must never read as a clean pass"
    | Error f ->
        Alcotest.failf "expected Truncated, got %s"
          (Resilience.Verifier.failure_to_string f)
  done;
  check (Alcotest.list Alcotest.string) "the oracle stays reachable" [ "finding" ]
    (Resilience.Verifier.oracle v ())

(* ------------------------------------------------------------------ *)
(* Runtime call paths                                                  *)
(* ------------------------------------------------------------------ *)

let rt () = Resilience.Runtime.create Resilience.Runtime.default_config

(* [Runtime.check] with its notes collected in order. *)
let run_check ?trust t v input =
  let notes = ref [] in
  let verdict =
    Resilience.Runtime.check t ?trust ~note:(fun n -> notes := n :: !notes) v input
  in
  (verdict, List.rev !notes)

let test_runtime_success_passthrough () =
  let t = rt () in
  let v = Resilience.Verifier.wrap Resilience.Verifier.Parse_check (fun x -> x * 3) in
  match run_check t v 5 with
  | Resilience.Runtime.Checked 15, [] -> ()
  | _ -> Alcotest.fail "no faults: check must be Checked (oracle input)"

let test_runtime_retries_transient () =
  let t = rt () in
  let v = Resilience.Verifier.wrap Resilience.Verifier.Campion (fun x -> x) in
  let calls = ref 0 in
  Resilience.Verifier.install v (fun x ->
      incr calls;
      if !calls = 1 then Error Resilience.Verifier.Flaked else Ok x);
  (match run_check t v 9 with
  | Resilience.Runtime.Checked 9, [] -> ()
  | _ -> Alcotest.fail "a flake within the retry budget must recover");
  check int_t "one retry" 2 !calls;
  check state_t "breaker closed after recovery" Resilience.Breaker.Closed
    (Resilience.Runtime.breaker_state t Resilience.Verifier.Campion)

let test_runtime_exhaustion_degrades_and_trips () =
  let t = rt () in
  let v = Resilience.Verifier.wrap Resilience.Verifier.Topology (fun x -> x) in
  Resilience.Verifier.install v (fun _ -> Error Resilience.Verifier.Flaked);
  (match run_check t v 0 with
  | Resilience.Runtime.Hand_checked 0, [ Degraded (Resilience.Verifier.Topology, reason) ]
    ->
      check Alcotest.string "the reason names the failure and the attempts"
        "transient failure; 3 attempts exhausted" reason
  | _ -> Alcotest.fail "a permanently failing verifier must degrade to the hand check");
  (* Three failed attempts (Retry.default) = Breaker.default's threshold. *)
  check int_t "breaker tripped" 1
    (Resilience.Runtime.breaker_trips t Resilience.Verifier.Topology);
  match run_check t v 0 with
  | _, [ Resilience.Runtime.Degraded (_, reason) ] ->
      check bool_t "short-circuited by the open breaker" true
        (String.starts_with ~prefix:"circuit open" reason)
  | _ -> Alcotest.fail "the open breaker must reject without calling"

let test_runtime_derive_is_independent () =
  let t = rt () in
  let v = Resilience.Verifier.wrap Resilience.Verifier.Bgp_sim (fun x -> x) in
  Resilience.Verifier.install v (fun _ -> Error Resilience.Verifier.Flaked);
  ignore (run_check t v 0);
  check bool_t "parent breaker tripped" true
    (Resilience.Runtime.breaker_trips t Resilience.Verifier.Bgp_sim > 0);
  let child = Resilience.Runtime.derive t 0 in
  check int_t "child breakers start fresh" 0
    (Resilience.Runtime.breaker_trips child Resilience.Verifier.Bgp_sim);
  check state_t "child closed" Resilience.Breaker.Closed
    (Resilience.Runtime.breaker_state child Resilience.Verifier.Bgp_sim)

(* ------------------------------------------------------------------ *)
(* Per-verifier policies                                               *)
(* ------------------------------------------------------------------ *)

let test_policies_cost_scaled () =
  let parse = Resilience.Policies.for_kind Resilience.Verifier.Parse_check in
  let bgp = Resilience.Policies.for_kind Resilience.Verifier.Bgp_sim in
  check bool_t "bgp-sim retries strictly fewer than parse-check" true
    (bgp.Resilience.Policies.retry.Resilience.Retry.max_attempts
    < parse.Resilience.Policies.retry.Resilience.Retry.max_attempts);
  check bool_t "bgp-sim breaker trips on a shorter streak" true
    (bgp.Resilience.Policies.breaker.Resilience.Breaker.failure_threshold
    < parse.Resilience.Policies.breaker.Resilience.Breaker.failure_threshold);
  check bool_t "bgp-sim breaker cools down longer" true
    (bgp.Resilience.Policies.breaker.Resilience.Breaker.cooldown
    > parse.Resilience.Policies.breaker.Resilience.Breaker.cooldown);
  List.iter
    (fun k ->
      check bool_t "mid-cost kinds keep the default policy" true
        (Resilience.Policies.for_kind k
        = {
            Resilience.Policies.retry = Resilience.Retry.default;
            breaker = Resilience.Breaker.default;
          }))
    [
      Resilience.Verifier.Campion;
      Resilience.Verifier.Topology;
      Resilience.Verifier.Route_policies;
    ]

(* A fresh runtime per kind so one kind's tripped breaker cannot leak into
   the other's attempt count. *)
let attempts_under_permafail kind =
  let t = rt () in
  let v = Resilience.Verifier.wrap kind (fun x -> x) in
  let calls = ref 0 in
  Resilience.Verifier.install v (fun _ ->
      incr calls;
      Error Resilience.Verifier.Flaked);
  (match run_check t v 0 with
  | Resilience.Runtime.Hand_checked _, [ Degraded _ ] -> ()
  | _ -> Alcotest.fail "a permanently failing verifier must degrade");
  !calls

let test_runtime_honors_per_kind_caps () =
  check int_t "parse-check exhausts its 4-attempt budget" 4
    (attempts_under_permafail Resilience.Verifier.Parse_check);
  check int_t "bgp-sim gives up after 2 attempts" 2
    (attempts_under_permafail Resilience.Verifier.Bgp_sim);
  check bool_t "the expensive verifier stops strictly sooner" true
    (attempts_under_permafail Resilience.Verifier.Bgp_sim
    < attempts_under_permafail Resilience.Verifier.Parse_check)

(* ------------------------------------------------------------------ *)
(* Driver: pay-for-what-you-use and chaos determinism                  *)
(* ------------------------------------------------------------------ *)

let md t = Cosynth.Driver.transcript_to_markdown ~title:"run" t

let chaos_config ?(crash = 0.) ?(timeout = 0.) ?(flake = 0.) ?(truncate = 0.) seed =
  Resilience.Runtime.config
    ~chaos:
      (Resilience.Chaos.make ~crash_rate:crash ~timeout_rate:timeout ~flake_rate:flake
         ~truncate_rate:truncate ~seed ())
    ()

let test_rate0_translation_identical () =
  let wrapped =
    Cosynth.Driver.run_translation ~seed:42
      ~resilience:Resilience.Runtime.default_config ~cisco_text ()
  in
  let plain = Cosynth.Driver.run_translation ~seed:42 ~cisco_text () in
  check Alcotest.string "transcripts byte-identical"
    (md plain.Cosynth.Driver.transcript)
    (md wrapped.Cosynth.Driver.transcript);
  check Alcotest.string "final configs byte-identical" plain.Cosynth.Driver.final_text
    wrapped.Cosynth.Driver.final_text

let test_rate0_no_transit_identical () =
  let wrapped =
    Cosynth.Driver.run_no_transit ~seed:42
      ~resilience:Resilience.Runtime.default_config ~routers:5 ()
  in
  let plain = Cosynth.Driver.run_no_transit ~seed:42 ~routers:5 () in
  check Alcotest.string "transcripts byte-identical"
    (md plain.Cosynth.Driver.transcript)
    (md wrapped.Cosynth.Driver.transcript)

let test_chaos_run_deterministic () =
  let resilience = chaos_config ~crash:0.2 ~timeout:0.1 ~flake:0.1 11 in
  let run () =
    md
      (Cosynth.Driver.run_translation ~seed:5 ~resilience ~cisco_text ())
        .Cosynth.Driver.transcript
  in
  check Alcotest.string "same chaos seed: same transcript" (run ()) (run ())

let test_chaos_pool_equals_sequential () =
  let resilience = chaos_config ~crash:0.2 ~flake:0.1 13 in
  let seq = Cosynth.Driver.run_no_transit ~seed:9 ~resilience ~routers:5 () in
  let pool = Exec.Pool.create ~domains:4 () in
  let par = Cosynth.Driver.run_no_transit ~seed:9 ~resilience ~pool ~routers:5 () in
  Exec.Pool.shutdown pool;
  check Alcotest.string "pooled chaos run == sequential"
    (md seq.Cosynth.Driver.transcript)
    (md par.Cosynth.Driver.transcript)

(* ------------------------------------------------------------------ *)
(* Driver: degradation and budget exhaustion                           *)
(* ------------------------------------------------------------------ *)

let count_origin origin (t : Cosynth.Driver.transcript) =
  List.length
    (List.filter
       (fun (e : Cosynth.Driver.event) -> e.Cosynth.Driver.origin = origin)
       t.Cosynth.Driver.events)

let assert_counts_accurate (t : Cosynth.Driver.transcript) =
  check int_t "auto counter matches the events" t.Cosynth.Driver.auto_prompts
    (count_origin Cosynth.Driver.Auto t);
  check int_t "human counter matches the events" t.Cosynth.Driver.human_prompts
    (count_origin Cosynth.Driver.Human t)

let test_outage_degrades_not_crashes () =
  (* Every verifier permanently down: the loop must still terminate, with
     the stages hand-checked (Degraded events) and findings escalated to
     the human — reduced leverage, never an exception. *)
  let resilience = chaos_config ~crash:1.0 17 in
  let r = Cosynth.Driver.run_translation ~seed:3 ~resilience ~cisco_text () in
  let t = r.Cosynth.Driver.transcript in
  check bool_t "degraded events recorded" true (count_origin Cosynth.Driver.Degraded t > 0);
  assert_counts_accurate t;
  let baseline =
    Cosynth.Driver.leverage
      (Cosynth.Driver.run_translation ~seed:3 ~cisco_text ()).Cosynth.Driver.transcript
  in
  check bool_t "outages reduce leverage" true (Cosynth.Driver.leverage t < baseline)

let test_budget_exhaustion_translation () =
  let resilience = chaos_config ~crash:1.0 19 in
  let r =
    Cosynth.Driver.run_translation ~seed:3 ~max_prompts:5 ~resilience ~cisco_text ()
  in
  let t = r.Cosynth.Driver.transcript in
  check bool_t "does not converge on a starved budget" false t.Cosynth.Driver.converged;
  check bool_t "stays within max_prompts" true
    (t.Cosynth.Driver.auto_prompts + t.Cosynth.Driver.human_prompts <= 5);
  assert_counts_accurate t

let test_budget_exhaustion_no_transit () =
  let resilience = chaos_config ~crash:1.0 23 in
  let r =
    Cosynth.Driver.run_no_transit ~seed:3 ~max_prompts:8 ~resilience ~routers:5 ()
  in
  let t = r.Cosynth.Driver.transcript in
  check bool_t "does not converge on a starved budget" false t.Cosynth.Driver.converged;
  check bool_t "stays within max_prompts" true
    (t.Cosynth.Driver.auto_prompts + t.Cosynth.Driver.human_prompts <= 8);
  assert_counts_accurate t

(* ------------------------------------------------------------------ *)
(* Memo: faults and lies never reach a table                          *)
(* ------------------------------------------------------------------ *)

let global_stats () = Netcore.Memo_table.stats "global_memo"

(* The whole-network verdict table is the oracle inside the wrapped global
   verifier: chaos and lies act on top of it, so what they inject never
   enters the table. The chaos loops and the lying loops each run first on
   emptied tables, since a network an earlier loop stored is never asked of
   the faulty verifier; every network a loop ends on then reads the
   uncached sim and proof. A rate-0 loop run after the lying loops, over
   what they stored, ends on the uncached verdict and proof. *)
let test_global_memo_survives_faults () =
  let routers = 5 and seeds = List.init 8 succ in
  let star = Netcore.Star.make ~routers in
  let lookups () =
    let s = global_stats () in
    s.Netcore.Memo_table.hits + s.Netcore.Memo_table.misses
  in
  let sim_failures () =
    (List.assoc Resilience.Verifier.Bgp_sim (Resilience.Stats.snapshot ()))
      .Resilience.Stats.failures
  in
  let run ?resilience ?adversary seed =
    Cosynth.Driver.run_no_transit ~seed ~final_check:Cosynth.Driver.Both ?resilience
      ?adversary ~routers ()
  in
  let uncached configs =
    let ok, violations = Cosynth.Modularizer.no_transit_holds star configs in
    let proof = Cosynth.Lightyear.prove_no_transit star configs in
    (ok && proof = Cosynth.Lightyear.Proved, violations, proof)
  in
  let loops label ~reset f =
    if reset then Exec.Memo.reset ();
    let before = lookups () in
    let rs = List.map f seeds in
    check bool_t (label ^ ": the loops reached the table") true (lookups () > before);
    List.iter
      (fun (r : Cosynth.Driver.synthesis_result) ->
        let ok, violations, proof = uncached r.Cosynth.Driver.configs in
        let (ok', violations'), proof' =
          Cosynth.Driver.check_global Cosynth.Driver.Both star r.Cosynth.Driver.configs
        in
        check bool_t (label ^ ": verdict") ok ok';
        check bool_t (label ^ ": proof") true (proof' = Some proof);
        check bool_t (label ^ ": the sim's violations lead") true
          (List.filteri (fun i _ -> i < List.length violations) violations' = violations))
      rs;
    rs
  in
  let failures = sim_failures () in
  ignore
    (loops "chaos" ~reset:true
       (run ~resilience:(chaos_config ~crash:0.08 ~timeout:0.08 ~flake:0.08 ~truncate:0.08 99)));
  check bool_t "chaos: faults hit the global check" true (sim_failures () > failures);
  ignore
    (loops "lies" ~reset:true
       (run
          ~adversary:
            (Adversary.Spec.make
               ~verifier:
                 (Adversary.Verifier.make ~false_negative:0.3 ~false_positive:0.1 ~mutated:0.2
                    ~seed:7 ())
               ())));
  List.iter
    (fun (r : Cosynth.Driver.synthesis_result) ->
      let ok, _, proof = uncached r.Cosynth.Driver.configs in
      check bool_t "rate-0 loop: global_ok" ok r.Cosynth.Driver.global_ok;
      check bool_t "rate-0 loop: proof" true (r.Cosynth.Driver.proof = Some proof))
    (loops "rate 0" ~reset:false run)

(* The parse and draft-verdict tables sit inside the chaos gate and under
   the lie layer ({!Resilience.Suite}), so a chaos loop or a lying loop can
   store only honest answers there. Each runs first on empty tables, since a
   draft an earlier loop stored is never asked of the faulty verifier. A
   rate-0 loop run after it ends exactly as it does on empty tables, and
   every draft a loop over the star is likely to have checked reads the
   uncached parse and [check_all]. *)
let test_local_memos_survive_faults () =
  let routers = 5 and seeds = List.init 8 succ in
  let star = Netcore.Star.make ~routers in
  let run ?resilience ?adversary seed =
    Cosynth.Driver.run_no_transit ~seed ?resilience ?adversary ~routers ()
  in
  let outcome (r : Cosynth.Driver.synthesis_result) =
    ( Netcore.Json.to_string (Cosynth.Driver.transcript_to_json r.Cosynth.Driver.transcript),
      r.Cosynth.Driver.configs,
      r.Cosynth.Driver.global_ok )
  in
  let cold =
    List.map
      (fun seed ->
        Exec.Memo.reset ();
        outcome (run seed))
      seeds
  in
  let hits name = (Netcore.Memo_table.stats name).Netcore.Memo_table.hits in
  let dialect = Batfish.Parse_check.Cisco_ios in
  let after label faulty =
    Exec.Memo.reset ();
    let faulted = List.map (fun seed -> outcome (faulty seed)) seeds in
    let parse_hits = hits "memo" and verdict_hits = hits "verdict_memo" in
    let clean = List.map (fun seed -> outcome (run seed)) seeds in
    check bool_t (label ^ ", then rate 0: the loops read the parse table") true
      (hits "memo" > parse_hits);
    check bool_t (label ^ ", then rate 0: the loops read the verdict tables") true
      (hits "verdict_memo" > verdict_hits);
    List.iter2
      (fun seed ((t, configs, ok), (t', configs', ok')) ->
        let label = Printf.sprintf "%s, then rate 0, seed %d" label seed in
        check Alcotest.string (label ^ ": transcript as on empty tables") t t';
        check bool_t (label ^ ": configs as on empty tables") true (configs = configs');
        check bool_t (label ^ ": global verdict as on empty tables") ok ok')
      seeds (List.combine cold clean);
    let parse_hits = hits "memo" in
    List.iter
      (fun (task : Cosynth.Modularizer.router_task) ->
        let correct = task.Cosynth.Modularizer.correct in
        let specs = task.Cosynth.Modularizer.specs in
        let draft_label = Printf.sprintf "%s: %s draft" label task.Cosynth.Modularizer.router in
        let fault_sets =
          [] :: List.map (fun f -> [ f ]) (Llmsim.Fault.opportunities Llmsim.Fault.Cisco_cfg correct)
        in
        List.iter
          (fun faults ->
            let text = Llmsim.Fault.render Llmsim.Fault.Cisco_cfg correct faults in
            let parsed = Batfish.Parse_check.check dialect text in
            check bool_t (draft_label ^ ": parse as uncached") true
              (Exec.Memo.check dialect text = parsed);
            check bool_t (draft_label ^ ": verdicts as check_all") true
              (Exec.Memo.route_policies_of_draft text specs
              = Batfish.Search_route_policies.check_all (fst parsed) specs))
          fault_sets)
      (Cosynth.Modularizer.plan star);
    check bool_t (label ^ ": those drafts were in the parse table") true (hits "memo" > parse_hits);
    faulted
  in
  let failures kind =
    (List.assoc kind (Resilience.Stats.snapshot ())).Resilience.Stats.failures
  in
  let kinds = [ Resilience.Verifier.Parse_check; Resilience.Verifier.Route_policies ] in
  let before = List.map failures kinds in
  ignore
    (after "chaos"
       (run ~resilience:(chaos_config ~crash:0.08 ~timeout:0.08 ~flake:0.08 ~truncate:0.08 99)));
  List.iter2
    (fun kind n ->
      check bool_t
        ("chaos: faults hit " ^ Resilience.Verifier.kind_name kind)
        true (failures kind > n))
    kinds before;
  let lying =
    after "lies"
      (run
         ~adversary:
           (Adversary.Spec.make
              ~verifier:
                (Adversary.Verifier.make ~false_negative:0.3 ~false_positive:0.1 ~mutated:0.2
                   ~seed:7 ())
              ()))
  in
  check bool_t "lies: some loop ends otherwise" true (lying <> cold)

(* The key holds every config the sim reads: editing one spoke misses the
   table and answers that network's own verdict. So does another
   [final_check] over the same network. *)
let test_global_memo_key () =
  Exec.Memo.reset ();
  let star = Netcore.Star.make ~routers:5 in
  let configs =
    List.map
      (fun (t : Cosynth.Modularizer.router_task) ->
        (t.Cosynth.Modularizer.router, t.Cosynth.Modularizer.correct))
      (Cosynth.Modularizer.plan star)
  in
  let stats = global_stats in
  let global check_kind configs = Cosynth.Driver.check_global check_kind star configs in
  let ((ok, _), _) = global Cosynth.Driver.Both configs in
  check bool_t "the planned network holds" true ok;
  ignore (global Cosynth.Driver.Both configs);
  check int_t "the same network hits" 1 (stats ()).Netcore.Memo_table.hits;
  (* R3 stops speaking BGP: ISP-3 and the CUSTOMER lose each other, which
     only the sim sees; the proof reads the hub alone. *)
  let silenced =
    List.map
      (fun (name, (ir : Policy.Config_ir.t)) ->
        if name = "R3" then (name, { ir with Policy.Config_ir.bgp = None }) else (name, ir))
      configs
  in
  let misses = (stats ()).Netcore.Memo_table.misses in
  let ((ok', violations), proof) = global Cosynth.Driver.Both silenced in
  check int_t "an edited spoke misses" (misses + 1) (stats ()).Netcore.Memo_table.misses;
  check bool_t "and fails the sim" false ok';
  check bool_t "with the sim's violations" true
    (violations <> []
    && fst (Cosynth.Modularizer.no_transit_holds star silenced) = false);
  check bool_t "while the hub still proves" true (proof = Some Cosynth.Lightyear.Proved);
  ignore (global Cosynth.Driver.Simulate configs);
  check int_t "another final check misses" (misses + 2) (stats ()).Netcore.Memo_table.misses

(* [Exec.Memo.reset] empties every table in the process, the render and
   whole-network tables included. *)
let test_memo_reset_empties_new_tables () =
  let star = Netcore.Star.make ~routers:4 in
  let hub = List.hd (Cosynth.Modularizer.plan star) in
  let chat =
    Llmsim.Chat.start ~seed:1 Llmsim.Fault.Cisco_cfg ~correct:hub.Cosynth.Modularizer.correct
  in
  ignore (Llmsim.Chat.draft chat : string);
  ignore
    (Cosynth.Driver.check_global Cosynth.Driver.Simulate star
       [ (hub.Cosynth.Modularizer.router, hub.Cosynth.Modularizer.correct) ]);
  let filled (s : Netcore.Memo_table.stats) = s.entries > 0 && s.misses > 0 in
  let render_stats () = Netcore.Memo_table.stats "render_memo" in
  check bool_t "render table filled" true (filled (render_stats ()));
  check bool_t "global table filled" true (filled (global_stats ()));
  Exec.Memo.reset ();
  let empty = { Netcore.Memo_table.hits = 0; misses = 0; entries = 0; evictions = 0 } in
  check bool_t "render table empty" true (render_stats () = empty);
  check bool_t "global table empty" true (global_stats () = empty)

(* ------------------------------------------------------------------ *)
(* Property: any fault schedule terminates within budget               *)
(* ------------------------------------------------------------------ *)

let rates_gen =
  let open QCheck2.Gen in
  let rate = map (fun n -> float_of_int n /. 20.) (int_range 0 10) in
  tup2 (tup4 rate rate rate rate) (int_range 0 10_000)

let rates_print ((c, t, f, tr), seed) =
  Printf.sprintf "crash %.2f timeout %.2f flake %.2f truncate %.2f seed %d" c t f tr
    seed

let prop_translation_terminates_within_budget =
  QCheck2.Test.make
    ~name:"translation: any fault schedule terminates within max_prompts" ~count:15
    ~print:rates_print rates_gen
    (fun ((crash, timeout, flake, truncate), seed) ->
      let resilience = chaos_config ~crash ~timeout ~flake ~truncate seed in
      let r =
        Cosynth.Driver.run_translation ~seed ~max_prompts:60 ~resilience ~cisco_text ()
      in
      let t = r.Cosynth.Driver.transcript in
      t.Cosynth.Driver.auto_prompts + t.Cosynth.Driver.human_prompts <= 60
      && t.Cosynth.Driver.auto_prompts = count_origin Cosynth.Driver.Auto t
      && t.Cosynth.Driver.human_prompts = count_origin Cosynth.Driver.Human t)

let prop_no_transit_terminates_within_budget =
  QCheck2.Test.make
    ~name:"no-transit: any fault schedule terminates within max_prompts" ~count:10
    ~print:rates_print rates_gen
    (fun ((crash, timeout, flake, truncate), seed) ->
      let resilience = chaos_config ~crash ~timeout ~flake ~truncate seed in
      let r =
        Cosynth.Driver.run_no_transit ~seed ~max_prompts:120 ~resilience ~routers:5 ()
      in
      let t = r.Cosynth.Driver.transcript in
      t.Cosynth.Driver.auto_prompts + t.Cosynth.Driver.human_prompts <= 120
      && t.Cosynth.Driver.auto_prompts = count_origin Cosynth.Driver.Auto t
      && t.Cosynth.Driver.human_prompts = count_origin Cosynth.Driver.Human t)

(* ------------------------------------------------------------------ *)
(* Property: retry backoff bounds under extreme policies and seeds     *)
(* ------------------------------------------------------------------ *)

let retry_extreme_gen =
  let open QCheck2.Gen in
  let policy =
    map
      (fun ((base, cap), jitter_q) ->
        {
          Resilience.Retry.max_attempts = 1;
          base_backoff = base;
          max_backoff = cap;
          jitter = float_of_int jitter_q /. 4.;
        })
      (tup2 (tup2 (int_range 1 1_000_000) (int_range 1 1_000_000_000)) (int_range 0 16))
  in
  tup3 policy (int_range 1 100_000) int

let retry_extreme_print (p, failures, seed) =
  Printf.sprintf "base %d cap %d jitter %.2f failures %d seed %d"
    p.Resilience.Retry.base_backoff p.Resilience.Retry.max_backoff
    p.Resilience.Retry.jitter failures seed

let prop_retry_backoff_bounds_extreme =
  QCheck2.Test.make
    ~name:"retry: backoff within [capped, capped + jitter*capped] for any policy"
    ~count:500 ~print:retry_extreme_print retry_extreme_gen
    (fun (p, failures, seed) ->
      let rng = Netcore.Rng.make seed in
      (* Mirror of the documented bound: exponential on failures with the
         shift capped (so huge failure counts cannot overflow), clamped to
         max_backoff, plus jitter in [0, jitter * capped]. *)
      let capped =
        min p.Resilience.Retry.max_backoff
          (p.Resilience.Retry.base_backoff * (1 lsl min (failures - 1) 20))
      in
      let hi =
        capped
        + int_of_float (p.Resilience.Retry.jitter *. float_of_int capped)
      in
      let b = Resilience.Retry.backoff p rng ~failures in
      b >= capped && b <= hi)

(* ------------------------------------------------------------------ *)
(* Property: breaker half-open gating and re-trip timing               *)
(* ------------------------------------------------------------------ *)

let breaker_ops_gen =
  let open QCheck2.Gen in
  let policy =
    map
      (fun (th, cd) -> { Resilience.Breaker.failure_threshold = th; cooldown = cd })
      (tup2 (int_range 1 5) (int_range 1 30))
  in
  let op =
    frequency
      [
        (2, map (fun d -> `Advance d) (int_range 0 40));
        (3, return `Fail);
        (1, return `Succeed);
        (3, return `Acquire);
      ]
  in
  tup2 policy (list_size (int_range 1 80) op)

let breaker_ops_print (p, ops) =
  let op_str = function
    | `Advance d -> Printf.sprintf "+%d" d
    | `Fail -> "F"
    | `Succeed -> "S"
    | `Acquire -> "A"
  in
  Printf.sprintf "threshold %d cooldown %d: %s" p.Resilience.Breaker.failure_threshold
    p.Resilience.Breaker.cooldown
    (String.concat " " (List.map op_str ops))

let prop_breaker_half_open_timing =
  QCheck2.Test.make ~name:"breaker: half-open gating and re-trip timing" ~count:300
    ~print:breaker_ops_print breaker_ops_gen
    (fun (policy, ops) ->
      let module B = Resilience.Breaker in
      let b = B.create policy in
      let now = ref 0 in
      let opened_at = ref 0 in
      let trips_seen = ref 0 in
      let ok = ref true in
      let expect c = if not c then ok := false in
      List.iter
        (fun op ->
          if !ok then
            match op with
            | `Advance d -> now := !now + d
            | `Succeed ->
                B.record_success b;
                expect (B.state b = B.Closed);
                expect (B.cooldown_left b ~now:!now = 0)
            | `Fail ->
                let before = B.state b in
                let tripped = B.record_failure b ~now:!now in
                if tripped then begin
                  incr trips_seen;
                  opened_at := !now
                end;
                (* A trip always lands open; a failed half-open trial always
                   re-trips; failing while already open never re-trips. *)
                expect ((not tripped) || B.state b = B.Open);
                expect (before <> B.Half_open || tripped);
                expect (before <> B.Open || not tripped)
            | `Acquire -> (
                let before = B.state b in
                let r = B.acquire b ~now:!now in
                match before with
                | B.Open ->
                    if !now - !opened_at >= policy.B.cooldown then
                      (* Cooldown elapsed: exactly one half-open trial. *)
                      expect (r = `Proceed && B.state b = B.Half_open)
                    else begin
                      expect (r = `Reject && B.state b = B.Open);
                      expect
                        (B.cooldown_left b ~now:!now
                        = policy.B.cooldown - (!now - !opened_at))
                    end
                | B.Closed | B.Half_open -> expect (r = `Proceed)))
        ops;
      expect (Resilience.Breaker.trips b = !trips_seen);
      !ok)

(* ------------------------------------------------------------------ *)
(* Durable store: CRC framing, disk chaos, triage durability           *)
(* ------------------------------------------------------------------ *)

let with_store_temp f =
  let path = Filename.temp_file "cosynth_store_" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Durable.Diskchaos.uninstall ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_crc32_vector () =
  (* The IEEE CRC-32 check value: crc32("123456789") = 0xCBF43926. *)
  check bool_t "check vector" true
    (Durable.Crc32.digest "123456789" = 0xCBF43926);
  check bool_t "empty string" true (Durable.Crc32.digest "" = 0);
  check bool_t "single-bit sensitivity" true
    (Durable.Crc32.digest "123456788" <> 0xCBF43926)

let test_store_roundtrip () =
  with_store_temp (fun path ->
      let records =
        List.init 5 (fun i -> Netcore.Json.Obj [ ("i", Netcore.Json.Int i) ])
      in
      let t = Durable.Store.open_ ~truncate:true path in
      List.iter
        (fun j -> check bool_t "append durable" true (Durable.Store.append t j))
        records;
      Durable.Store.close t;
      let got, stats = Durable.Store.read path in
      check bool_t "round trip" true (got = records);
      check int_t "all ok" 5 stats.Durable.Store.ok;
      check int_t "no corruption" 0 stats.Durable.Store.corrupt;
      check int_t "no legacy" 0 stats.Durable.Store.legacy)

let store_rec i = Netcore.Json.Obj [ ("i", Netcore.Json.Int i) ]
let store_frame i = Durable.Store.frame (Netcore.Json.to_string (store_rec i))

let test_store_append_seals_torn_tail () =
  with_store_temp (fun path ->
      let t = Durable.Store.open_ ~truncate:true path in
      check bool_t "first append durable" true (Durable.Store.append t (store_rec 0));
      (* A silent torn write on this handle: reported durable, but only a
         prefix of its frame reached the file. *)
      Durable.Diskchaos.install (Durable.Diskchaos.make ~torn_rate:1.0 ~seed:3 ());
      check bool_t "torn append reported durable" true
        (Durable.Store.append t (store_rec 1));
      Durable.Diskchaos.uninstall ();
      (* The same damage by hand, so the tail is torn whatever prefix length
         the fault stream drew for this temp path. *)
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
          Out_channel.output_string oc (String.sub (store_frame 2) 0 20));
      check bool_t "next append durable" true (Durable.Store.append t (store_rec 3));
      Durable.Store.close t;
      let got, stats = Durable.Store.read path in
      check bool_t "the record after the tear survives" true
        (got = [ store_rec 0; store_rec 3 ]);
      check int_t "the tear is one corrupt line" 1 stats.Durable.Store.corrupt)

let test_store_unterminated_frame_torn () =
  with_store_temp (fun path ->
      (* A crash one byte short: record 1's whole frame but its newline. *)
      let f1 = store_frame 1 in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (store_frame 0);
          Out_channel.output_string oc (String.sub f1 0 (String.length f1 - 1)));
      let got, stats = Durable.Store.read path in
      check bool_t "only the terminated record reads back" true (got = [ store_rec 0 ]);
      check int_t "the unterminated frame is corrupt" 1 stats.Durable.Store.corrupt;
      let t = Durable.Store.open_ path in
      check bool_t "append durable" true (Durable.Store.append t (store_rec 2));
      Durable.Store.close t;
      let got, stats = Durable.Store.read path in
      check bool_t "the seal does not revive the torn frame" true
        (got = [ store_rec 0; store_rec 2 ]);
      check int_t "still one corrupt line" 1 stats.Durable.Store.corrupt)

let test_diskchaos_deterministic () =
  let cfg = Durable.Diskchaos.make ~torn_rate:0.3 ~io_error_rate:0.2 ~seed:11 () in
  let fates cfg =
    Durable.Diskchaos.install cfg;
    let fs =
      List.init 20 (fun i ->
          Durable.Diskchaos.write_fate ~path:"/x/a" ~len:(40 + i))
    in
    Durable.Diskchaos.uninstall ();
    fs
  in
  check bool_t "same config, same fates" true (fates cfg = fates cfg);
  check bool_t "different seed, different fates" true
    (fates cfg
    <> fates (Durable.Diskchaos.make ~torn_rate:0.3 ~io_error_rate:0.2 ~seed:12 ()));
  check bool_t "none is none" true
    (Durable.Diskchaos.is_none (Durable.Diskchaos.make ~seed:0 ()));
  (* Disarmed: the fast path neither injects nor counts. Installing the
     all-zero config injects nothing but counts every operation — how the
     D1 gate measures a run's write-point schedule. *)
  check bool_t "disarmed fast path" true
    (Durable.Diskchaos.write_fate ~path:"/x/a" ~len:100
    = Durable.Diskchaos.Write_all);
  Durable.Diskchaos.install (Durable.Diskchaos.make ~seed:0 ());
  ignore (Durable.Diskchaos.write_fate ~path:"/x/a" ~len:10);
  ignore (Durable.Diskchaos.fsync_fate ~path:"/x/a");
  let st = Durable.Diskchaos.stats () in
  Durable.Diskchaos.uninstall ();
  check int_t "armed zero-rate config counts ops" 2 st.Durable.Diskchaos.ops;
  check int_t "but injects nothing" 0
    (st.Durable.Diskchaos.shorts + st.Durable.Diskchaos.torn
    + st.Durable.Diskchaos.io_errors + st.Durable.Diskchaos.enospc
    + st.Durable.Diskchaos.fsync_failures + st.Durable.Diskchaos.crashes)

let test_triage_kill_mid_append () =
  with_store_temp (fun path ->
      let rows = [ ("parse", "Failure", 2); ("synth", "Timeout", 1) ] in
      (* Each row is one write + one fsync; crash_after 2 lets row 1 land
         durably and kills the process inside row 2's write. *)
      Durable.Diskchaos.install
        (Durable.Diskchaos.make ~crash_after:2 ~seed:1 ());
      (match Resilience.Triage.append ~path ~seed:5 rows with
      | () -> Alcotest.fail "expected the injected crash"
      | exception Durable.Diskchaos.Crashed _ -> ());
      Durable.Diskchaos.uninstall ();
      let survived = Resilience.Triage.load path in
      check int_t "only the fsync'd prefix row survives" 1 (List.length survived);
      (match survived with
      | [ r ] ->
          check bool_t "and it is the first row, intact" true
            (r.Resilience.Triage.stage = "parse"
            && r.Resilience.Triage.constructor = "Failure"
            && r.Resilience.Triage.count = 2)
      | _ -> ());
      (* Re-running the seed repairs the history: load stays total over
         the torn line and merges the re-run rows. *)
      Resilience.Triage.append ~path ~seed:5 rows;
      let merged = Resilience.Triage.load path in
      check int_t "re-run restores both buckets" 2 (List.length merged);
      check bool_t "torn line never surfaces as a row" true
        (List.for_all
           (fun r ->
             r.Resilience.Triage.stage = "parse"
             || r.Resilience.Triage.stage = "synth")
           merged))

let test_parse_admission_caps () =
  let module A = Resilience.Admission in
  let current = A.default_config in
  let parse = Cosynth.Service.parse_admission_caps ~current in
  (match parse "{\"max_in_flight\": 9, \"max_queue\": 3}" with
  | Ok c ->
      check int_t "in-flight applied" 9 c.A.max_in_flight;
      check int_t "queue applied" 3 c.A.max_queue;
      check int_t "missing keys keep current" current.A.max_per_client
        c.A.max_per_client;
      check int_t "missing deadline kept" current.A.max_deadline_ms
        c.A.max_deadline_ms
  | Error e -> Alcotest.failf "valid caps rejected: %s" e);
  (match parse "{\"unknown\": 1}" with
  | Ok c -> check bool_t "unknown keys ignored" true (c = current)
  | Error e -> Alcotest.failf "unknown-keys file rejected: %s" e);
  let rejects text = match parse text with Ok _ -> false | Error _ -> true in
  check bool_t "truncated write rejected (all-or-nothing)" true
    (rejects "{\"max_in_flight\": 2, \"max_qu");
  check bool_t "empty file rejected" true (rejects "");
  check bool_t "non-object rejected" true (rejects "[1, 2]");
  check bool_t "non-integer value rejected" true
    (rejects "{\"max_in_flight\": \"all\"}");
  check bool_t "below-floor in-flight rejected" true
    (rejects "{\"max_in_flight\": 0}");
  check bool_t "negative queue rejected" true (rejects "{\"max_queue\": -1}");
  check bool_t "one bad key poisons the whole file" true
    (rejects "{\"max_queue\": 5, \"max_in_flight\": 0}")

(* ------------------------------------------------------------------ *)
(* Property: store reads are total under arbitrary corruption          *)
(* ------------------------------------------------------------------ *)

let store_corruption_gen =
  let open QCheck2.Gen in
  (* (record count, payload seed, mutation site, xor byte, truncate?) *)
  tup5 (int_range 1 8) (int_range 0 9999) (int_range 0 1_000_000) (int_range 1 255)
    bool

let store_corruption_print (n, seed, site, x, truncate) =
  Printf.sprintf "%d record(s) seed %d %s at site %d (xor %#x)" n seed
    (if truncate then "truncated" else "flipped")
    site x

let prop_store_read_total_under_corruption =
  QCheck2.Test.make
    ~name:"store: reads are total under truncation and byte flips" ~count:250
    ~print:store_corruption_print store_corruption_gen
    (fun (n, seed, site, x, truncate) ->
      let records =
        List.init n (fun i ->
            Netcore.Json.Obj
              [
                ("seed", Netcore.Json.Int seed);
                ("i", Netcore.Json.Int i);
                ("note", Netcore.Json.String (Printf.sprintf "r%d-%d" seed i));
              ])
      in
      let intact = List.map Netcore.Json.to_string records in
      let bytes =
        String.concat ""
          (List.map (fun j -> Durable.Store.frame (Netcore.Json.to_string j)) records)
      in
      let mutated =
        if truncate then String.sub bytes 0 (site mod (String.length bytes + 1))
        else begin
          let b = Bytes.of_string bytes in
          let p = site mod Bytes.length b in
          Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor x));
          Bytes.to_string b
        end
      in
      let path = Filename.temp_file "cosynth_prop_" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let oc = open_out_bin path in
          output_string oc mutated;
          close_out oc;
          let got, _ = Durable.Store.read path in
          let got = List.map Netcore.Json.to_string got in
          let rec is_prefix a b =
            match (a, b) with
            | [], _ -> true
            | x :: a', y :: b' when String.equal x y -> is_prefix a' b'
            | _ -> false
          in
          (* Never a phantom record; a truncation yields exactly a clean
             prefix, and a single flipped byte loses at most the lines it
             touches (two, when the flip eats a newline). *)
          List.for_all (fun g -> List.mem g intact) got
          &&
          if truncate then is_prefix got intact else List.length got >= n - 2))

let prop_store_roundtrip_identity =
  QCheck2.Test.make ~name:"store: fault-free frame/decode round trip" ~count:200
    ~print:(fun (a, b) -> Printf.sprintf "(%d, %d)" a b)
    QCheck2.Gen.(tup2 int int)
    (fun (a, b) ->
      let j =
        Netcore.Json.Obj
          [ ("a", Netcore.Json.Int a); ("b", Netcore.Json.Int b) ]
      in
      let line = Durable.Store.frame (Netcore.Json.to_string j) in
      match
        Durable.Store.decode_line (String.sub line 0 (String.length line - 1))
      with
      | `Ok j' -> j' = j
      | _ -> false)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_translation_terminates_within_budget;
      prop_no_transit_terminates_within_budget;
      prop_retry_backoff_bounds_extreme;
      prop_breaker_half_open_timing;
      prop_store_read_total_under_corruption;
      prop_store_roundtrip_identity;
    ]

(* ------------------------------------------------------------------ *)
(* Guard: the exception firewall                                       *)
(* ------------------------------------------------------------------ *)

exception Kaboom of string

let test_guard_passthrough () =
  Resilience.Guard.reset ();
  (match Resilience.Guard.run ~label:"ok-stage" (fun () -> 6 * 7) with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "a returning thunk must pass through untouched");
  check int_t "no registry entries on success" 0 (Resilience.Guard.total ())

let test_guard_maps_exceptions () =
  Resilience.Guard.reset ();
  let crash_of f =
    match Resilience.Guard.run ~label:"boom-stage" ~fingerprint:"cafe1234" f with
    | Error c -> c
    | Ok _ -> Alcotest.fail "a raising thunk must be Error"
  in
  let c = crash_of (fun () -> failwith "nope") in
  check Alcotest.string "Failure constructor" "Failure"
    c.Resilience.Guard.constructor;
  check Alcotest.string "stage label carried" "boom-stage" c.Resilience.Guard.stage;
  check Alcotest.string "fingerprint carried" "cafe1234"
    c.Resilience.Guard.fingerprint;
  check bool_t "message keeps the payload" true
    (String.length c.Resilience.Guard.message > 0);
  let c = crash_of (fun () -> invalid_arg "bad") in
  check Alcotest.string "Invalid_argument constructor" "Invalid_argument"
    c.Resilience.Guard.constructor;
  let c = crash_of (fun () -> raise Not_found) in
  check Alcotest.string "Not_found constructor" "Not_found"
    c.Resilience.Guard.constructor;
  let c = crash_of (fun () -> raise (Kaboom "custom")) in
  check bool_t "custom constructor resolved" true
    (String.length c.Resilience.Guard.constructor > 0
    && c.Resilience.Guard.constructor <> "Failure");
  (* Every crash landed in the registry, bucketed by (stage, constructor). *)
  check int_t "registry counted each crash" 4 (Resilience.Guard.total ());
  check bool_t "buckets keyed by constructor" true
    (List.exists
       (fun (s, k, n) -> s = "boom-stage" && k = "Failure" && n = 1)
       (Resilience.Guard.crashes ()))

let test_guard_verifier_faulted () =
  Resilience.Guard.reset ();
  let v =
    Resilience.Verifier.wrap Resilience.Verifier.Parse_check (fun _ ->
        raise (Kaboom "verifier blew up"))
  in
  (match Resilience.Verifier.run v 5 with
  | Error (Resilience.Verifier.Faulted c) ->
      check Alcotest.string "stage is the verifier kind" "parse-check"
        c.Resilience.Guard.stage;
      check bool_t "humanizable failure text" true
        (let s =
           Resilience.Verifier.failure_to_string (Resilience.Verifier.Faulted c)
         in
         String.length s > 0)
  | _ -> Alcotest.fail "a raising oracle must surface as Faulted");
  (* And a healthy oracle through the same boundary is untouched. *)
  let v = Resilience.Verifier.wrap Resilience.Verifier.Parse_check (fun x -> x + 1) in
  match Resilience.Verifier.run v 5 with
  | Ok 6 -> ()
  | _ -> Alcotest.fail "the guard must be invisible on the success path"

(* The input's fingerprint is filled into the crash on the error path, for
   the automated call and the hand check alike, with the text a crash has
   always carried. *)
let test_guard_crash_fingerprint () =
  Resilience.Guard.reset ();
  let input = ("route-map m permit 10\n", [ 1; 2 ]) in
  let v =
    Resilience.Verifier.wrap Resilience.Verifier.Route_policies (fun _ ->
        failwith "verifier blew up")
  in
  (match Resilience.Verifier.run v input with
  | Error (Resilience.Verifier.Faulted c as f) ->
      check Alcotest.string "fingerprint of the input" "186e59f3" c.Resilience.Guard.fingerprint;
      check Alcotest.string "failure text"
        "stage route-policies aborted on Failure (input 186e59f3)"
        (Resilience.Verifier.failure_to_string f)
  | _ -> Alcotest.fail "a raising oracle must surface as Faulted");
  (* A schedule that only ever truncates degrades the stage without raising,
     so the one further crash is the hand check's. *)
  Resilience.Verifier.install v (fun _ -> Error Resilience.Verifier.Truncated);
  (match run_check (rt ()) v input with
  | Resilience.Runtime.Crashed c, [ Degraded _ ] ->
      check Alcotest.string "hand-check stage" "route-policies/hand-check"
        c.Resilience.Guard.stage;
      check Alcotest.string "hand-check fingerprint" "186e59f3" c.Resilience.Guard.fingerprint
  | _ -> Alcotest.fail "the hand check must surface the crash");
  check int_t "both crashes recorded" 2 (Resilience.Guard.total ());
  (* Without an installed service, the cross-check oracle is the same hand
     check, under the same label. *)
  match Resilience.Verifier.oracle_runner v input with
  | Error c ->
      check Alcotest.string "service default stage" "route-policies/hand-check"
        c.Resilience.Guard.stage
  | Ok _ -> Alcotest.fail "the service default must surface the crash"

let test_runtime_stage_watchdog () =
  (* Topology's fixed policy allows 3 attempts; a huge round budget and a
     2-tick stage budget make the tick watchdog — not attempts exhaustion,
     not the round deadline — what cancels the stage. *)
  let cfg = Resilience.Runtime.config ~round_budget:10_000 ~stage_budget:2 () in
  let t = Resilience.Runtime.create cfg in
  let v = Resilience.Verifier.wrap Resilience.Verifier.Topology (fun x -> x) in
  let calls = ref 0 in
  Resilience.Verifier.install v (fun _ ->
      incr calls;
      Error Resilience.Verifier.Flaked);
  match run_check t v 0 with
  | _, [ Resilience.Runtime.Degraded (_, reason) ] ->
      check bool_t "degraded by the stage watchdog" true
        (Netcore.Substring.contains ~sub:"stage watchdog" reason);
      check bool_t "watchdog fired mid-retry, not at exhaustion" true (!calls < 3)
  | _ -> Alcotest.fail "a hung stage must be cancelled"

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let adm_cfg =
  {
    Resilience.Admission.max_in_flight = 2;
    max_queue = 1;
    max_per_client = 2;
    max_deadline_ms = 5_000;
    retry_after_ms = 30;
  }

let test_admission_admit_release () =
  let a = Resilience.Admission.create adm_cfg in
  match
    (Resilience.Admission.admit a ~client:"x", Resilience.Admission.admit a ~client:"y")
  with
  | Resilience.Admission.Admitted t1, Resilience.Admission.Admitted t2 ->
      let s = Resilience.Admission.stats a in
      check int_t "both in flight" 2 s.Resilience.Admission.in_flight;
      Resilience.Admission.release a t1;
      (* Idempotent: the abandonment path and the completion path may both
         release the same ticket. *)
      Resilience.Admission.release a t1;
      Resilience.Admission.release a t2;
      let s = Resilience.Admission.stats a in
      check int_t "all released" 0 s.Resilience.Admission.in_flight;
      check int_t "released counts tickets, not release calls" 2
        s.Resilience.Admission.released;
      check int_t "peak tracked" 2 s.Resilience.Admission.peak_in_flight
  | _ -> Alcotest.fail "two admits under capacity must both be Admitted"

let test_admission_capacity_shed () =
  (* Capacity 2 + queue 1: with 2 running and 1 queued, the 4th caller is
     shed immediately with the configured retry hint. *)
  let a = Resilience.Admission.create adm_cfg in
  let t1 =
    match Resilience.Admission.admit a ~client:"a" with
    | Resilience.Admission.Admitted t -> t
    | _ -> Alcotest.fail "first admit"
  in
  (match Resilience.Admission.admit a ~client:"b" with
  | Resilience.Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "second admit");
  (* Third caller queues (blocking), so it runs on its own thread; it must
     be admitted once a slot frees. *)
  let queued_result = ref None in
  let queued =
    Thread.create
      (fun () -> queued_result := Some (Resilience.Admission.admit a ~client:"c"))
      ()
  in
  Thread.delay 0.05;
  check int_t "third caller is queued" 1
    (Resilience.Admission.stats a).Resilience.Admission.queued;
  (* Queue full: the fourth caller is shed, not queued. *)
  (match Resilience.Admission.admit a ~client:"d" with
  | Resilience.Admission.Shed { retry_after_ms; reason } ->
      check int_t "retry hint from config" 30 retry_after_ms;
      check bool_t "shed for capacity" true (reason = Resilience.Admission.Capacity)
  | Resilience.Admission.Admitted _ -> Alcotest.fail "queue-full caller admitted");
  Resilience.Admission.release a t1;
  Thread.join queued;
  (match !queued_result with
  | Some (Resilience.Admission.Admitted _) -> ()
  | _ -> Alcotest.fail "queued caller not admitted after a release");
  let s = Resilience.Admission.stats a in
  check int_t "one capacity shed counted" 1 s.Resilience.Admission.shed_capacity;
  check int_t "peak queue depth tracked" 1 s.Resilience.Admission.peak_queued

let test_admission_per_client_cap () =
  (* One identity at its cap is shed immediately — even though global
     capacity remains — so a single flooding client cannot occupy the
     whole queue. *)
  let a =
    Resilience.Admission.create { adm_cfg with Resilience.Admission.max_in_flight = 8 }
  in
  (match
     ( Resilience.Admission.admit a ~client:"greedy",
       Resilience.Admission.admit a ~client:"greedy" )
   with
  | Resilience.Admission.Admitted _, Resilience.Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "under the per-client cap both admit");
  (match Resilience.Admission.admit a ~client:"greedy" with
  | Resilience.Admission.Shed { reason; _ } ->
      check bool_t "shed for the per-client cap" true
        (reason = Resilience.Admission.Per_client)
  | Resilience.Admission.Admitted _ -> Alcotest.fail "cap not enforced");
  (* A different identity is untouched. *)
  match Resilience.Admission.admit a ~client:"other" with
  | Resilience.Admission.Admitted _ ->
      check int_t "per-client shed counted" 1
        (Resilience.Admission.stats a).Resilience.Admission.shed_per_client
  | _ -> Alcotest.fail "other client shed by a stranger's cap"

let test_admission_clamp_deadline () =
  check int_t "no ask means the cap" 5_000
    (Resilience.Admission.clamp_deadline adm_cfg None);
  check int_t "ask under the cap honored" 250
    (Resilience.Admission.clamp_deadline adm_cfg (Some 250));
  check int_t "ask over the cap clamped" 5_000
    (Resilience.Admission.clamp_deadline adm_cfg (Some 60_000));
  check int_t "nonpositive ask clamped to 1" 1
    (Resilience.Admission.clamp_deadline adm_cfg (Some 0))

(* ------------------------------------------------------------------ *)
(* Guard: per-request deadlines                                        *)
(* ------------------------------------------------------------------ *)

let test_guard_deadline_in_time () =
  Resilience.Guard.reset ();
  let settled = ref false in
  (match
     Resilience.Guard.run_deadline ~deadline_ms:2_000
       ~on_settled:(fun () -> settled := true)
       ~label:"fast" (fun () -> 6 * 7)
   with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "an in-time thunk must pass through");
  (* on_settled fires on the worker thread the moment the thunk finishes;
     give it a beat. *)
  Thread.delay 0.05;
  check bool_t "on_settled fired" true !settled;
  check int_t "no crash recorded" 0 (Resilience.Guard.total ())

let test_guard_deadline_expiry () =
  Resilience.Guard.reset ();
  let settled = ref false in
  let t0 = Unix.gettimeofday () in
  (match
     Resilience.Guard.run_deadline ~deadline_ms:80
       ~on_settled:(fun () -> settled := true)
       ~label:"slow"
       (fun () ->
         Thread.delay 0.4;
         0)
   with
  | Error c ->
      check Alcotest.string "deadline constructor" "Deadline_exceeded"
        c.Resilience.Guard.constructor;
      check Alcotest.string "stage label carried" "slow" c.Resilience.Guard.stage
  | Ok _ -> Alcotest.fail "an overrunning thunk must be Error");
  let waited = Unix.gettimeofday () -. t0 in
  check bool_t "caller returned near the deadline, not the full sleep" true
    (waited < 0.3);
  check bool_t "expiry recorded in the registry" true
    (List.exists
       (fun (s, k, _) -> s = "slow" && k = "Deadline_exceeded")
       (Resilience.Guard.crashes ()));
  (* The abandoned worker still finishes and settles — that is where the
     admission slot comes back from. *)
  Thread.delay 0.5;
  check bool_t "on_settled fired after abandonment" true !settled

(* An in-time call has settled by the time it returns, even when settling
   is slow, and every call settles exactly once, in time or abandoned. *)
let test_guard_deadline_settles_once () =
  Resilience.Guard.reset ();
  let settles = Atomic.make 0 in
  let released = Atomic.make false in
  let slow_settle () =
    Thread.delay 0.05;
    Atomic.incr settles;
    Atomic.set released true
  in
  (match
     Resilience.Guard.run_deadline ~deadline_ms:2_000 ~on_settled:slow_settle ~label:"in-time"
       (fun () -> 1)
   with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "an in-time thunk must pass through");
  check bool_t "settled before an in-time return" true (Atomic.get released);
  Thread.delay 0.1;
  check int_t "an in-time call settles once" 1 (Atomic.get settles);
  let abandoned = Atomic.make 0 in
  (match
     Resilience.Guard.run_deadline ~deadline_ms:20
       ~on_settled:(fun () -> Atomic.incr abandoned)
       ~label:"abandoned"
       (fun () -> Thread.delay 0.1)
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "an overrunning thunk must be Error");
  let rec wait n =
    if Atomic.get abandoned = 0 && n > 0 then begin
      Thread.delay 0.01;
      wait (n - 1)
    end
  in
  wait 300;
  Thread.delay 0.1;
  check int_t "an abandoned call settles once" 1 (Atomic.get abandoned);
  Resilience.Guard.reset ()

(* The caller wakes when the thunk finishes, not on a polling tick. *)
let test_guard_deadline_wakes_on_completion () =
  let times =
    List.init 50 (fun _ ->
        let t0 = Unix.gettimeofday () in
        (match Resilience.Guard.run_deadline ~deadline_ms:2_000 ~label:"quick" Fun.id with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "an in-time thunk must pass through");
        Unix.gettimeofday () -. t0)
  in
  let median = List.nth (List.sort compare times) 25 in
  check bool_t
    (Printf.sprintf "median in-time call %.3f ms is under 2.5 ms" (median *. 1000.))
    true (median < 0.0025)

(* Every call opens a pipe; in-time and expired calls alike must close both
   ends once the worker has settled. *)
let test_guard_deadline_closes_fds () =
  if Sys.file_exists "/proc/self/fd" then begin
    Resilience.Guard.reset ();
    let fds () = Array.length (Sys.readdir "/proc/self/fd") in
    let settled = Atomic.make 0 in
    let before = fds () in
    let expired = ref 0 in
    for i = 1 to 200 do
      let slow = i mod 2 = 0 in
      match
        Resilience.Guard.run_deadline
          ~deadline_ms:(if slow then 1 else 2_000)
          ~on_settled:(fun () -> Atomic.incr settled)
          ~label:"fds"
          (fun () -> if slow then Thread.delay 0.01)
      with
      | Ok () -> ()
      | Error _ -> incr expired
    done;
    let rec wait n =
      if Atomic.get settled < 200 && n > 0 then begin
        Thread.delay 0.01;
        wait (n - 1)
      end
    in
    wait 500;
    check int_t "every worker settled" 200 (Atomic.get settled);
    check bool_t "some calls expired" true (!expired > 0);
    check int_t "no descriptor leaked" before (fds ());
    Resilience.Guard.reset ()
  end

(* ------------------------------------------------------------------ *)
(* Trust: the Byzantine-verifier reputation ledger                     *)
(* ------------------------------------------------------------------ *)

(* The process-wide tallies for one kind since [before]. *)
let trust_delta before k =
  let open Resilience.Trust in
  List.assoc k (diff before (snapshot ()))

let test_trust_two_disagreements_quarantine () =
  let t = Resilience.Trust.create Resilience.Trust.default_config in
  let k = Resilience.Verifier.Campion in
  let before = Resilience.Trust.snapshot () in
  (* 1.0 - 0.4 = 0.6 >= 0.5: the first detected lie only debits... *)
  check bool_t "first disagreement debits" true
    (Resilience.Trust.disagree t k = `Ok);
  check bool_t "still trusted" false (Resilience.Trust.quarantined t k);
  (* ...and 0.6 - 0.4 = 0.2 < 0.5: the second quarantines. *)
  check bool_t "second disagreement quarantines" true
    (Resilience.Trust.disagree t k = `Quarantined);
  check bool_t "quarantined" true (Resilience.Trust.quarantined t k);
  let d = trust_delta before k in
  check int_t "both lies counted" 2 d.Resilience.Trust.disagreements;
  check int_t "entered quarantine once" 1 d.Resilience.Trust.quarantines;
  (* Reputation is per kind: a lying Campion says nothing about Batfish. *)
  check bool_t "other kinds untouched" false
    (Resilience.Trust.quarantined t Resilience.Verifier.Parse_check);
  (* A quarantined kind's answers are hand-run, never voluntarily
     cross-checked — the budget is for kinds still worth vetting. *)
  check bool_t "no voluntary checks while quarantined" false
    (Resilience.Trust.should_check t k ~dirty:true)

let test_trust_probation_restores () =
  let cfg = { Resilience.Trust.default_config with Resilience.Trust.probation = 2 } in
  let t = Resilience.Trust.create cfg in
  let k = Resilience.Verifier.Topology in
  let before = Resilience.Trust.snapshot () in
  ignore (Resilience.Trust.disagree t k);
  check bool_t "setup: quarantined" true
    (Resilience.Trust.disagree t k = `Quarantined);
  (* One agreement, then a disagreement: the streak resets — restoration
     demands *consecutive* honest behavior. *)
  check bool_t "first agreeing re-run not enough" true
    (Resilience.Trust.probation t k ~agree:true = `Still);
  check bool_t "disagreeing re-run resets the streak" true
    (Resilience.Trust.probation t k ~agree:false = `Still);
  check bool_t "streak restarts" true
    (Resilience.Trust.probation t k ~agree:true = `Still);
  check bool_t "second consecutive agreement restores" true
    (Resilience.Trust.probation t k ~agree:true = `Restored 2);
  check bool_t "quarantine lifted" false (Resilience.Trust.quarantined t k);
  let d = trust_delta before k in
  check int_t "restore counted" 1 d.Resilience.Trust.restores;
  check int_t "every re-run counted" 4 d.Resilience.Trust.probation_runs;
  (* Restoration is a clean slate: the score is back at the initial 1.0. *)
  check bool_t "score reset to initial" true (Resilience.Trust.score t k = 1.0)

let test_trust_suspicion_and_note_truth () =
  let t = Resilience.Trust.create Resilience.Trust.default_config in
  let k = Resilience.Verifier.Parse_check in
  (* A kind's very first clean pass is suspicious (a round-one false
     negative must not slip through)... *)
  check bool_t "first clean pass checked" true
    (Resilience.Trust.should_check t k ~dirty:false);
  (* ...but clean-after-clean is not. *)
  check bool_t "clean after clean not suspicious" false
    (Resilience.Trust.should_check t k ~dirty:false);
  (* The oracle said the draft was actually dirty: re-anchoring to the
     truth makes the next fake clean pass suspicious again — without
     note_truth a caught false negative would launder the history. *)
  Resilience.Trust.note_truth t k ~dirty:true;
  check bool_t "clean after a caught lie is suspicious" true
    (Resilience.Trust.should_check t k ~dirty:false)

let test_trust_budget_exhausts () =
  let cfg =
    { Resilience.Trust.default_config with Resilience.Trust.check_budget = 3 }
  in
  let t = Resilience.Trust.create cfg in
  let k = Resilience.Verifier.Bgp_sim in
  for i = 1 to 3 do
    if not (Resilience.Trust.should_check t k ~dirty:true) then
      Alcotest.failf "check %d refused with budget remaining" i
  done;
  check bool_t "budget spent: dirty answers no longer checked" false
    (Resilience.Trust.should_check t k ~dirty:true);
  check int_t "spent exactly the budget" 3 (Resilience.Trust.checks_spent t)

(* Whatever the answer stream — any dirtiness sequence, spread over every
   kind — the ledger never grants more voluntary cross-checks than its
   budget, and its spent counter is exactly the number of grants. *)
let prop_trust_budget_never_exceeded =
  QCheck2.Test.make ~name:"trust: voluntary cross-checks never exceed the budget"
    ~count:100
    QCheck2.Gen.(pair (int_bound 8) (list_size (int_bound 60) bool))
    (fun (budget, answers) ->
      let cfg =
        { Resilience.Trust.default_config with Resilience.Trust.check_budget = budget }
      in
      let t = Resilience.Trust.create cfg in
      let kinds = Array.of_list Resilience.Verifier.all_kinds in
      let granted =
        List.fold_left
          (fun (i, n) dirty ->
            let k = kinds.(i mod Array.length kinds) in
            (i + 1, if Resilience.Trust.should_check t k ~dirty then n + 1 else n))
          (0, 0) answers
        |> snd
      in
      granted <= budget && Resilience.Trust.checks_spent t = granted)

let test_admission_set_caps_live () =
  (* SIGHUP hot reload: raising max_in_flight must admit a queued waiter
     immediately — no release, no drain. *)
  let a =
    Resilience.Admission.create
      { adm_cfg with Resilience.Admission.max_in_flight = 1 }
  in
  let t1 =
    match Resilience.Admission.admit a ~client:"a" with
    | Resilience.Admission.Admitted t -> t
    | _ -> Alcotest.fail "first admit"
  in
  let queued_result = ref None in
  let queued =
    Thread.create
      (fun () -> queued_result := Some (Resilience.Admission.admit a ~client:"b"))
      ()
  in
  Thread.delay 0.05;
  check int_t "second caller queued behind the cap" 1
    (Resilience.Admission.stats a).Resilience.Admission.queued;
  Resilience.Admission.set_caps a
    { adm_cfg with Resilience.Admission.max_in_flight = 2 };
  Thread.join queued;
  (match !queued_result with
  | Some (Resilience.Admission.Admitted _) -> ()
  | _ -> Alcotest.fail "raised cap did not admit the queued waiter");
  check int_t "new caps in force" 2
    (Resilience.Admission.config a).Resilience.Admission.max_in_flight;
  (* Reloaded caps are clamped exactly as by create: garbage in a caps
     file must not wedge the daemon. *)
  Resilience.Admission.set_caps a
    { adm_cfg with Resilience.Admission.max_in_flight = 0; max_queue = -5 };
  let c = Resilience.Admission.config a in
  check int_t "in-flight clamped to >= 1" 1 c.Resilience.Admission.max_in_flight;
  check int_t "queue clamped to >= 0" 0 c.Resilience.Admission.max_queue;
  (* Lowering below current usage never revokes tickets: both releases
     settle cleanly. *)
  Resilience.Admission.release a t1;
  (match !queued_result with
  | Some (Resilience.Admission.Admitted t2) -> Resilience.Admission.release a t2
  | _ -> ());
  check int_t "all slots returned" 0
    (Resilience.Admission.stats a).Resilience.Admission.in_flight

(* ------------------------------------------------------------------ *)
(* Quorum cross-checks (the collusion defense)                         *)
(* ------------------------------------------------------------------ *)

let test_quorum_overrule_refund_and_tie () =
  let t = Resilience.Trust.create Resilience.Trust.default_config in
  let k = Resilience.Verifier.Campion in
  let before = Resilience.Trust.quorum_snapshot () in
  check bool_t "audit granted against a fresh ledger" true
    (Resilience.Trust.should_audit t k);
  check int_t "the grant charges the budget" 1 (Resilience.Trust.audits_spent t);
  (* K=4: two referees at weight 1.0 tie the full-trust suspect+oracle
     camp (1.0 + 1.0) — and referees win ties, because agreement between
     two already-suspect parties must not outrank independent hand
     re-runs of equal weight. *)
  (match Resilience.Trust.quorum_verdict t k with
  | `Overruled (kind_q, oracle_q) ->
      check bool_t "one debit does not quarantine the kind" false kind_q;
      (* The oracle is debited at double weight: one proven collusion
         (1.0 - 0.8 = 0.2 < 0.5) quarantines it. *)
      check bool_t "one overrule quarantines the oracle" true oracle_q
  | `Outvoted -> Alcotest.fail "tie must go to the referees");
  check bool_t "oracle quarantined" true (Resilience.Trust.oracle_quarantined t);
  let d = Resilience.Trust.diff_quorum before (Resilience.Trust.quorum_snapshot ()) in
  check int_t "collusion counted" 1 d.Resilience.Trust.overruled;
  check int_t "oracle quarantine counted" 1 d.Resilience.Trust.oracle_quarantines;
  (* The overrule refunds its audit charge: the budget bounds what
     auditing honest agreements may cost, never the pursuit of a proven
     coalition. *)
  check int_t "overruled audit refunded" 0 (Resilience.Trust.audits_spent t);
  (* A quarantined oracle stops all audits — hand-runs are authoritative
     now, there is no clean-agreement left to audit. *)
  check bool_t "no audits while the oracle is quarantined" false
    (Resilience.Trust.should_audit t k)

let test_quorum_k3_outvoted () =
  (* The deliberately-too-small quorum: one referee (K - 2 = 1) cannot
     outweigh the full-trust camp's 2.0, so the colluding clean pass
     stands — and the outvoted audit stays charged. *)
  let cfg =
    { Resilience.Trust.default_config with Resilience.Trust.quorum = 3 }
  in
  let t = Resilience.Trust.create cfg in
  let k = Resilience.Verifier.Parse_check in
  let before = Resilience.Trust.quorum_snapshot () in
  check bool_t "audit granted" true (Resilience.Trust.should_audit t k);
  check bool_t "one referee is outvoted" true
    (Resilience.Trust.quorum_verdict t k = `Outvoted);
  check bool_t "no debit on an outvote" true (Resilience.Trust.oracle_score t = 1.0);
  let d = Resilience.Trust.diff_quorum before (Resilience.Trust.quorum_snapshot ()) in
  check int_t "no collusion counted" 0 d.Resilience.Trust.overruled;
  check int_t "outvote counted" 1 d.Resilience.Trust.outvoted;
  check int_t "outvoted audit stays charged" 1 (Resilience.Trust.audits_spent t)

let test_quorum_trust_weighted_shares () =
  (* Trust-informed scheduling: a full-trust kind among five gets
     ceil(8 * 1.0 / 5.0) = 2 of the default budget of 8 — audits
     concentrate on the high-trust kinds whose lies would do the most
     damage, and the third request for the same kind is refused with
     budget remaining. *)
  let t = Resilience.Trust.create Resilience.Trust.default_config in
  let k = Resilience.Verifier.Topology in
  check bool_t "first audit granted" true (Resilience.Trust.should_audit t k);
  check bool_t "second audit granted" true (Resilience.Trust.should_audit t k);
  check bool_t "third audit exceeds the kind's share" false
    (Resilience.Trust.should_audit t k);
  check int_t "global budget barely touched" 2 (Resilience.Trust.audits_spent t);
  check bool_t "another kind still has its own share" true
    (Resilience.Trust.should_audit t Resilience.Verifier.Bgp_sim)

let test_quorum_oracle_probation_and_alert_mode () =
  let t = Resilience.Trust.create Resilience.Trust.default_config in
  let k = Resilience.Verifier.Campion in
  ignore (Resilience.Trust.should_audit t k);
  (match Resilience.Trust.quorum_verdict t k with
  | `Overruled (_, true) -> ()
  | _ -> Alcotest.fail "setup: overrule must quarantine the oracle");
  (* Alert mode: a quarantined oracle proves a coalition with unknown
     membership, so every answer is suspicious — even clean-after-clean —
     and the checks are free (they resolve against the hand-run fallback,
     not the oracle service the budget bounds). *)
  let k2 = Resilience.Verifier.Topology in
  check bool_t "clean answer suspicious in alert mode" true
    (Resilience.Trust.should_check t k2 ~dirty:false);
  check bool_t "clean-after-clean still suspicious in alert mode" true
    (Resilience.Trust.should_check t k2 ~dirty:false);
  check int_t "alert-mode checks are not charged" 0
    (Resilience.Trust.checks_spent t);
  (* Oracle probation mirrors kind probation: a disagreement resets the
     streak, enough consecutive agreements restore. *)
  let before = Resilience.Trust.quorum_snapshot () in
  check bool_t "first agreement not enough" true
    (Resilience.Trust.oracle_probation t ~agree:true = `Still);
  check bool_t "disagreement resets the streak" true
    (Resilience.Trust.oracle_probation t ~agree:false = `Still);
  for _ = 1 to 2 do
    ignore (Resilience.Trust.oracle_probation t ~agree:true)
  done;
  check bool_t "third consecutive agreement restores" true
    (Resilience.Trust.oracle_probation t ~agree:true = `Restored 3);
  check bool_t "oracle quarantine lifted" false
    (Resilience.Trust.oracle_quarantined t);
  let d = Resilience.Trust.diff_quorum before (Resilience.Trust.quorum_snapshot ()) in
  check int_t "every oracle re-run counted" 5 d.Resilience.Trust.oracle_probations;
  check int_t "oracle restore counted" 1 d.Resilience.Trust.oracle_restores;
  (* Peacetime rules are back: clean-after-clean is no longer suspicious.
     ([k2]'s last observation above was clean.) *)
  check bool_t "alert mode ends with the quarantine" false
    (Resilience.Trust.should_check t k2 ~dirty:false)

(* The referee step of [Runtime.check]. While the oracle is quarantined the
   hand-run check referees and the oracle service rides along on
   probation. A probation that finishes on this very call restores the
   oracle, but opens no audit on the same call. *)
let test_check_restored_oracle_opens_no_audit () =
  let cfg = { Resilience.Trust.default_config with Resilience.Trust.probation = 1 } in
  let t = Resilience.Trust.create cfg in
  ignore (Resilience.Trust.should_audit t Resilience.Verifier.Campion);
  (match Resilience.Trust.quorum_verdict t Resilience.Verifier.Campion with
  | `Overruled (_, true) -> ()
  | _ -> Alcotest.fail "setup: overrule must quarantine the oracle");
  let v = Resilience.Verifier.wrap Resilience.Verifier.Topology (fun x -> x) in
  let before = Resilience.Trust.quorum_snapshot () in
  (match run_check ~trust:t (rt ()) v 7 with
  | Resilience.Runtime.Checked 7, [ Oracle_restored 1 ] -> ()
  | _ -> Alcotest.fail "an agreeing cross-check must restore the oracle and pass");
  check bool_t "oracle restored" false (Resilience.Trust.oracle_quarantined t);
  let d = Resilience.Trust.diff_quorum before (Resilience.Trust.quorum_snapshot ()) in
  check int_t "no audit counted" 0 d.Resilience.Trust.audits;
  check int_t "no audit spent" 0 (Resilience.Trust.audits_spent t)

(* A lie caught by the oracle service: the referee's answer stands as a
   hand-checked one and the kind is debited. *)
let test_check_catches_a_lie () =
  let t = Resilience.Trust.create Resilience.Trust.default_config in
  let k = Resilience.Verifier.Route_policies in
  let v = Resilience.Verifier.wrap ~dirty:(fun f -> f <> []) k (fun _ -> [ "finding" ]) in
  Resilience.Verifier.install v (fun _ -> Ok []);
  (match run_check ~trust:t (rt ()) v () with
  | Resilience.Runtime.Hand_checked [ "finding" ], [ Caught_lying k' ] ->
      check bool_t "the liar is named" true (k' = k)
  | _ -> Alcotest.fail "a fake clean pass must be caught and replaced");
  check bool_t "the liar is debited" true (Resilience.Trust.score t k < 1.0)

(* ------------------------------------------------------------------ *)
(* Persistent trust ledger (Ledger_store)                              *)
(* ------------------------------------------------------------------ *)

let sample_counters =
  {
    Resilience.Trust.cross_checks = 3;
    agreements = 2;
    disagreements = 1;
    quarantines = 1;
    restores = 0;
    probation_runs = 2;
  }

let sample_quorum =
  {
    Resilience.Trust.audits = 2;
    overruled = 1;
    outvoted = 0;
    oracle_quarantines = 1;
    oracle_restores = 0;
    oracle_probations = 1;
  }

(* A ledger with real battle scars: the oracle quarantined by an overrule,
   Campion quarantined by two lies, Parse_check debited once. *)
let scarred_entry () =
  let t = Resilience.Trust.create Resilience.Trust.default_config in
  ignore (Resilience.Trust.should_audit t Resilience.Verifier.Parse_check);
  ignore (Resilience.Trust.quorum_verdict t Resilience.Verifier.Parse_check);
  ignore (Resilience.Trust.disagree t Resilience.Verifier.Campion);
  ignore (Resilience.Trust.disagree t Resilience.Verifier.Campion);
  Resilience.Trust.state_of t ~counters:sample_counters ~quorum:sample_quorum

let test_ledger_store_roundtrip () =
  let e = scarred_entry () in
  (* JSON codec round-trip, field for field. *)
  (match
     Resilience.Trust.Ledger_store.entry_of_json
       (Resilience.Trust.Ledger_store.entry_to_json e)
   with
  | Some e' -> check bool_t "entry round-trips through JSON" true (e = e')
  | None -> Alcotest.fail "entry_to_json produced an unparseable entry");
  (* File round-trip with last-write-wins by seed. *)
  let path = Filename.temp_file "cosynth_trust_ledger_" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () ->
      let fresh =
        Resilience.Trust.state_of
          (Resilience.Trust.create Resilience.Trust.default_config)
          ~counters:Resilience.Trust.zero ~quorum:Resilience.Trust.zero_quorum
      in
      let h = Resilience.Trust.Ledger_store.open_ ~truncate:true path in
      Resilience.Trust.Ledger_store.record h ~seed:0 fresh;
      Resilience.Trust.Ledger_store.record h ~seed:1 fresh;
      (* A re-run of seed 0 supersedes its first record. *)
      Resilience.Trust.Ledger_store.record h ~seed:0 e;
      Resilience.Trust.Ledger_store.close h;
      match Resilience.Trust.Ledger_store.load path with
      | None -> Alcotest.fail "load lost the ledger"
      | Some merged ->
          check bool_t "last write wins, then seeds merge" true
            (merged = Resilience.Trust.Ledger_store.merge e fresh));
  check bool_t "missing file loads to None" true
    (Resilience.Trust.Ledger_store.load (path ^ ".does-not-exist") = None)

let test_ledger_merge_commutative () =
  let e1 = scarred_entry () in
  let e2 =
    let t = Resilience.Trust.create Resilience.Trust.default_config in
    ignore (Resilience.Trust.disagree t Resilience.Verifier.Topology);
    Resilience.Trust.state_of t ~counters:sample_counters
      ~quorum:Resilience.Trust.zero_quorum
  in
  let e3 =
    Resilience.Trust.state_of
      (Resilience.Trust.create Resilience.Trust.default_config)
      ~counters:Resilience.Trust.zero ~quorum:sample_quorum
  in
  let m = Resilience.Trust.Ledger_store.merge in
  check bool_t "merge commutes" true (m e1 e2 = m e2 e1);
  check bool_t "merge associates" true (m (m e1 e2) e3 = m e1 (m e2 e3));
  (* Quarantine ORs, scores take the min, counter deltas sum. *)
  let merged = m e1 e2 in
  check bool_t "quarantine survives the merge" true
    (List.exists
       (fun (k, (c : Resilience.Trust.Ledger_store.cell_state)) ->
         k = Resilience.Verifier.Campion && c.Resilience.Trust.Ledger_store.s_quarantined)
       merged.Resilience.Trust.Ledger_store.kinds);
  check int_t "counter deltas sum" 6
    merged.Resilience.Trust.Ledger_store.counters.Resilience.Trust.cross_checks

let test_trust_create_from () =
  let cfg = Resilience.Trust.default_config in
  (* Restoring an all-initial entry is indistinguishable from create. *)
  let initial =
    Resilience.Trust.state_of (Resilience.Trust.create cfg)
      ~counters:Resilience.Trust.zero ~quorum:Resilience.Trust.zero_quorum
  in
  let t = Resilience.Trust.create_from cfg initial in
  List.iter
    (fun k ->
      check bool_t "no kind quarantined" false (Resilience.Trust.quarantined t k);
      check bool_t "score at initial" true (Resilience.Trust.score t k = 1.0))
    Resilience.Verifier.all_kinds;
  check bool_t "oracle trusted" false (Resilience.Trust.oracle_quarantined t);
  (* Restoring battle scars puts the quarantines back in force. *)
  let t' = Resilience.Trust.create_from cfg (scarred_entry ()) in
  check bool_t "kind quarantine restored" true
    (Resilience.Trust.quarantined t' Resilience.Verifier.Campion);
  check bool_t "oracle quarantine restored" true
    (Resilience.Trust.oracle_quarantined t');
  check bool_t "debited score restored" true
    (Resilience.Trust.score t' Resilience.Verifier.Parse_check < 1.0)

(* The ledger session: [with_ledger] records exactly the kept runs, each
   as [state_of] with that run's counter deltas, folded with [merge]. *)
let test_trust_with_ledger () =
  let module T = Resilience.Trust in
  let path = Filename.temp_file "cosynth_trust_session_" ".jsonl" in
  let lines () =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.length
  in
  (* One caught Campion lie: moves the global counters and the score. *)
  let lie t =
    ignore (T.should_check t Resilience.Verifier.Campion ~dirty:true);
    ignore (T.disagree t Resilience.Verifier.Campion)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () ->
      check bool_t "no ledger, no trust" true
        (T.with_ledger None ~seed:0 ~keep:(fun _ -> true) Option.is_none);
      let l = T.open_ledger path in
      check bool_t "fresh file, empty state" true (T.ledger_state l = None);
      (* keep = false: the run happens, nothing is recorded. *)
      let r =
        T.with_ledger (Some l) ~seed:1 ~keep:(fun _ -> false) (fun t ->
            lie (Option.get t);
            7)
      in
      check int_t "result passes through" 7 r;
      check int_t "rejected run appends nothing" 0 (lines ());
      check bool_t "rejected run leaves the state" true (T.ledger_state l = None);
      (* keep = true: one line, equal to state_of with the run's deltas,
         computed here independently. *)
      let kept ~seed =
        let c0 = T.snapshot () and q0 = T.quorum_snapshot () in
        let t =
          T.with_ledger (Some l) ~seed ~keep:(fun _ -> true) (fun t ->
              let t = Option.get t in
              lie t;
              t)
        in
        T.state_of t
          ~counters:(T.totals (T.diff c0 (T.snapshot ())))
          ~quorum:(T.diff_quorum q0 (T.quorum_snapshot ()))
      in
      let e1 = kept ~seed:2 in
      check int_t "kept run appends one line" 1 (lines ());
      check bool_t "the line is the run's state and deltas" true
        (T.Ledger_store.load path = Some e1);
      check bool_t "state folds the kept run" true (T.ledger_state l = Some e1);
      check int_t "deltas are the run's own" 1
        e1.T.Ledger_store.counters.T.disagreements;
      (* The next run starts from the cumulative state. *)
      T.with_ledger (Some l) ~seed:3 ~keep:(fun _ -> false) (fun t ->
          check bool_t "next run starts debited" true
            (T.score (Option.get t) Resilience.Verifier.Campion < 1.0));
      let e2 = kept ~seed:4 in
      check int_t "second kept run appends one more" 2 (lines ());
      let folded = T.Ledger_store.merge e1 e2 in
      check bool_t "state is the merge of both runs" true (T.ledger_state l = Some folded);
      (* An exception from the run records nothing and propagates. *)
      (match
         T.with_ledger (Some l) ~seed:5 ~keep:(fun _ -> true) (fun _ -> failwith "boom")
       with
      | () -> Alcotest.fail "the exception was swallowed"
      | exception Failure _ -> ());
      check int_t "a raising run appends nothing" 2 (lines ());
      check bool_t "a raising run leaves the state" true (T.ledger_state l = Some folded);
      T.close_ledger l;
      (* Reopening resumes the folded state. *)
      let l' = T.open_ledger path in
      check bool_t "reopened ledger resumes the folded state" true
        (T.ledger_state l' = Some folded);
      T.close_ledger l')

(* ------------------------------------------------------------------ *)
(* Process-wide tallies under a pool                                   *)
(* ------------------------------------------------------------------ *)

(* Every counter family keeps one record per kind (or one record) under
   one lock. Bumped from many tasks at once on worker domains, no update
   may be lost: each snapshot delta is the exact count, and the
   [max_attempts] gauge is the largest value recorded. *)
let test_tallies_exact_under_pool () =
  let pool = Exec.Pool.create ~domains:4 () in
  let n = 64 in
  let kinds = Array.of_list Resilience.Verifier.all_kinds in
  let kind i = kinds.(i mod Array.length kinds) in
  let per_kind k = List.length (List.filter (fun i -> kind i = k) (List.init n Fun.id)) in
  (* Far above any attempt count a real call records, so the gauge's
     global mark is this test's. *)
  let gauge i = 1_000_000 + i in
  (* Enough rounds per task that an unlocked read-modify-write would lose
     updates even on two cores. *)
  let reps = 100 and stats_reps = 4 in
  let s0 = Resilience.Stats.snapshot () in
  let t0 = Resilience.Trust.snapshot () in
  let q0 = Resilience.Trust.quorum_snapshot () in
  let c0 = Exec.Supervisor.stats () in
  let bump i =
    let module S = Resilience.Stats in
    let module T = Resilience.Trust in
    let k = kind i in
    for _ = 1 to reps do
      for _ = 1 to stats_reps do
        S.record_attempt k;
        S.record_retry k;
        S.record_failure k;
        S.record_trip k;
        S.record_degraded k;
        S.record_call_attempts k (gauge i)
      done;
      (* One ledger per round: a check, an agreement, two lies
         (quarantine), then three agreeing probation re-runs (restore). *)
      let t = T.create T.default_config in
      ignore (T.should_check t k ~dirty:true);
      T.agree t k;
      ignore (T.disagree t k);
      ignore (T.disagree t k);
      for _ = 1 to 3 do
        ignore (T.probation t k ~agree:true)
      done;
      (* A second ledger: one overruled audit (a third lie on the kind,
         the oracle quarantined), then the oracle's own restore. *)
      let o = T.create T.default_config in
      ignore (T.should_audit o k);
      ignore (T.quorum_verdict o k);
      for _ = 1 to 3 do
        ignore (T.oracle_probation o ~agree:true)
      done
    done
  in
  ignore (Exec.Pool.map pool bump (List.init n Fun.id));
  let stats = Resilience.Stats.diff s0 (Resilience.Stats.snapshot ()) in
  let trust = Resilience.Trust.diff t0 (Resilience.Trust.snapshot ()) in
  Array.iter
    (fun k ->
      let m = reps * per_kind k in
      let name = Resilience.Verifier.kind_name k in
      let s = List.assoc k stats in
      List.iter
        (fun (field, v) -> check int_t (name ^ " stats " ^ field) (stats_reps * m) v)
        Resilience.Stats.
          [
            ("attempts", s.attempts);
            ("retries", s.retries);
            ("failures", s.failures);
            ("trips", s.breaker_trips);
            ("degraded", s.degraded);
          ];
      check int_t (name ^ " max_attempts is the largest recorded")
        (List.fold_left max 0
           (List.filter_map
              (fun i -> if kind i = k then Some (gauge i) else None)
              (List.init n Fun.id)))
        s.Resilience.Stats.max_attempts;
      let t = List.assoc k trust in
      List.iter
        (fun (field, want, v) -> check int_t (name ^ " trust " ^ field) want v)
        Resilience.Trust.
          [
            ("cross_checks", m, t.cross_checks);
            ("agreements", m, t.agreements);
            ("disagreements", 3 * m, t.disagreements);
            ("quarantines", m, t.quarantines);
            ("restores", m, t.restores);
            ("probation_runs", 3 * m, t.probation_runs);
          ])
    kinds;
  let q = Resilience.Trust.diff_quorum q0 (Resilience.Trust.quorum_snapshot ()) in
  List.iter
    (fun (field, want, v) -> check int_t ("quorum " ^ field) want v)
    Resilience.Trust.
      [
        ("audits", reps * n, q.audits);
        ("overruled", reps * n, q.overruled);
        ("outvoted", 0, q.outvoted);
        ("oracle_quarantines", reps * n, q.oracle_quarantines);
        ("oracle_restores", reps * n, q.oracle_restores);
        ("oracle_probations", 3 * reps * n, q.oracle_probations);
      ];
  (* Supervised map under a loss plan: a quarter of the tasks lose their
     worker on every dispatch (abandoned after 4), a quarter lose it in
     flight once, a quarter raise once; the rest run clean. *)
  let raised = Array.init n (fun _ -> Atomic.make false) in
  let plan ~index ~attempt =
    match index mod 4 with
    | 0 -> Some Exec.Supervisor.At_dispatch
    | 1 when attempt = 1 -> Some Exec.Supervisor.In_flight
    | _ -> None
  in
  let out =
    Exec.Supervisor.map ~pool ~plan
      (fun i ->
        if i mod 4 = 2 && not (Atomic.exchange raised.(i) true) then failwith "boom";
        i)
      (List.init n Fun.id)
  in
  Exec.Pool.shutdown pool;
  let quarter = n / 4 in
  check int_t "abandoned outcomes" quarter (List.length (List.filter Exec.Supervisor.abandoned out));
  let c = Exec.Supervisor.diff c0 (Exec.Supervisor.stats ()) in
  List.iter
    (fun (field, want, v) -> check int_t ("supervisor " ^ field) want v)
    Exec.Supervisor.
      [
        ("dispatched", (4 * quarter) + (2 * quarter) + (2 * quarter) + quarter, c.dispatched);
        ("completed", 3 * quarter, c.completed);
        ("losses", (4 * quarter) + quarter, c.losses);
        ("requeues", (3 * quarter) + quarter + quarter, c.requeues);
        ("task_exceptions", quarter, c.task_exceptions);
        ("abandoned", quarter, c.abandoned);
      ]

(* ------------------------------------------------------------------ *)
(* Service daemon x trust layer races                                  *)
(* ------------------------------------------------------------------ *)

let with_trust_daemon ?admission ?caps f =
  let dir = Filename.temp_file "cosynth_trustserve_" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let socket_path = Filename.concat dir "trust.sock" in
  let ledger = Filename.concat dir "trust.jsonl" in
  let caps_path = Filename.concat dir "caps.json" in
  Option.iter
    (fun text ->
      let oc = open_out caps_path in
      output_string oc text;
      close_out oc)
    caps;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with _ -> ())
        [ socket_path; ledger; caps_path ];
      try Sys.rmdir dir with _ -> ())
    (fun () ->
      let cfg =
        {
          Cosynth.Service.default_config with
          Cosynth.Service.domains = Some 1;
          drain_grace_ms = 500;
          trust_ledger = Some ledger;
          admission =
            Option.value
              ~default:
                Cosynth.Service.default_config.Cosynth.Service.admission
              admission;
          admission_file =
            (if caps = None then None else Some caps_path);
        }
      in
      let summary = ref None in
      let server =
        Thread.create
          (fun () -> summary := Some (Cosynth.Service.serve ~socket_path cfg))
          ()
      in
      let rec wait n =
        if n = 0 then Alcotest.fail "daemon never bound its socket"
        else if not (Sys.file_exists socket_path) then begin
          Thread.delay 0.05;
          wait (n - 1)
        end
      in
      wait 100;
      let r = f ~dir ~socket_path ~ledger in
      Thread.join server;
      (r, !summary))

let req_ok r =
  let module J = Netcore.Json in
  Option.bind (J.member "ok" r) J.to_bool = Some true

let test_service_drain_races_trust_crosscheck () =
  let module J = Netcore.Json in
  let (), summary =
    with_trust_daemon (fun ~dir:_ ~socket_path ~ledger ->
        (* Warm-up: a completed trust-armed job must hand its admission
           slot back — [health] still shows zero in flight and the compact
           trust object. *)
        Exec.Serve.with_connection ~socket_path (fun fd ->
            let r =
              Exec.Serve.request fd (J.Obj [ ("job", J.String "translate") ])
            in
            check bool_t "warm-up translate ok" true (req_ok r);
            let h = Exec.Serve.request fd (J.Obj [ ("job", J.String "health") ]) in
            check bool_t "no admission-slot leak after the trust job" true
              (Option.bind (J.member "in_flight" h) J.to_int = Some 0);
            check bool_t "health carries the trust object" true
              (J.member "trust" h <> None));
        (* The race: drain lands while a trust-armed job — mid quorum
           cross-check, holding the trust mutex — is in flight. Drain must
           wait for admitted work, the reply must arrive intact, and the
           job's ledger line must be flushed before the daemon exits. *)
        let in_flight_reply = ref None in
        let worker =
          Thread.create
            (fun () ->
              Exec.Serve.with_connection ~socket_path (fun fd ->
                  in_flight_reply :=
                    Some
                      (Exec.Serve.request fd
                         (J.Obj [ ("job", J.String "translate"); ("seed", J.Int 7) ]))))
            ()
        in
        Thread.delay 0.02;
        Exec.Serve.with_connection ~socket_path (fun fd ->
            ignore (Exec.Serve.request fd (J.Obj [ ("job", J.String "drain") ])));
        Thread.join worker;
        (match !in_flight_reply with
        | Some r -> check bool_t "in-flight trust job survived the drain" true (req_ok r)
        | None -> Alcotest.fail "in-flight job lost its reply");
        check bool_t "trust ledger flushed across the drain" true
          (Resilience.Trust.Ledger_store.load ledger <> None))
  in
  match summary with
  | Some s -> check bool_t "daemon wound down via drain" true s.Cosynth.Service.drained
  | None -> Alcotest.fail "daemon never returned a summary"

let test_service_set_caps_during_queued_trust_job () =
  let module J = Netcore.Json in
  let admission =
    {
      Resilience.Admission.max_in_flight = 1;
      max_queue = 4;
      max_per_client = 4;
      max_deadline_ms = 30_000;
      retry_after_ms = 30;
    }
  in
  let (), _ =
    with_trust_daemon ~admission ~caps:{|{"max_in_flight": 2}|}
      (fun ~dir:_ ~socket_path ~ledger:_ ->
        (* Job A holds the single admission slot and the trust mutex; job B
           queues behind the cap. A SIGHUP caps reload (Admission.set_caps
           under the hood) lands while B is queued: B re-evaluates against
           the raised cap, gets admitted, then blocks on the trust mutex
           until A's ledger write completes. Nothing may deadlock and both
           replies must arrive. *)
        let reply_a = ref None and reply_b = ref None in
        let job cell seed =
          Thread.create
            (fun () ->
              Exec.Serve.with_connection ~socket_path (fun fd ->
                  cell :=
                    Some
                      (Exec.Serve.request fd
                         (J.Obj
                            [ ("job", J.String "translate"); ("seed", J.Int seed) ]))))
            ()
        in
        let a = job reply_a 42 in
        Thread.delay 0.02;
        let b = job reply_b 43 in
        Thread.delay 0.02;
        Unix.kill (Unix.getpid ()) Sys.sighup;
        Thread.join a;
        Thread.join b;
        (match (!reply_a, !reply_b) with
        | Some ra, Some rb ->
            check bool_t "job A answered" true (req_ok ra);
            check bool_t "job B answered after the reload" true (req_ok rb)
        | _ -> Alcotest.fail "a queued trust job lost its reply");
        Exec.Serve.with_connection ~socket_path (fun fd ->
            let s = Exec.Serve.request fd (J.Obj [ ("job", J.String "stats") ]) in
            check bool_t "the SIGHUP was counted" true
              (match Option.bind (J.member "reloads" s) J.to_int with
              | Some n -> n >= 1
              | None -> false);
            check bool_t "all slots returned" true
              (match J.member "admission" s with
              | Some adm -> Option.bind (J.member "in_flight" adm) J.to_int = Some 0
              | None -> false);
            ignore (Exec.Serve.request fd (J.Obj [ ("job", J.String "shutdown") ]))))
  in
  ()

let () =
  Alcotest.run "resilience"
    [
      ( "retry",
        [
          Alcotest.test_case "deterministic backoff" `Quick test_retry_deterministic;
          Alcotest.test_case "backoff bounds" `Quick test_retry_bounds;
        ] );
      ( "guard",
        [
          Alcotest.test_case "pass-through" `Quick test_guard_passthrough;
          Alcotest.test_case "exception -> crash mapping" `Quick
            test_guard_maps_exceptions;
          Alcotest.test_case "raising oracle becomes Faulted" `Quick
            test_guard_verifier_faulted;
          Alcotest.test_case "crash carries the input's fingerprint" `Quick
            test_guard_crash_fingerprint;
          Alcotest.test_case "runtime stage watchdog" `Quick
            test_runtime_stage_watchdog;
          Alcotest.test_case "deadline: in-time passthrough" `Quick
            test_guard_deadline_in_time;
          Alcotest.test_case "deadline: expiry abandons and records" `Quick
            test_guard_deadline_expiry;
          Alcotest.test_case "deadline: wakes on completion" `Quick
            test_guard_deadline_wakes_on_completion;
          Alcotest.test_case "deadline: descriptors closed" `Quick
            test_guard_deadline_closes_fds;
          Alcotest.test_case "deadline: settles once, in-time before return" `Quick
            test_guard_deadline_settles_once;
        ] );
      ( "admission",
        [
          Alcotest.test_case "admit and idempotent release" `Quick
            test_admission_admit_release;
          Alcotest.test_case "bounded queue, capacity shed" `Quick
            test_admission_capacity_shed;
          Alcotest.test_case "per-client cap" `Quick test_admission_per_client_cap;
          Alcotest.test_case "deadline clamping" `Quick test_admission_clamp_deadline;
          Alcotest.test_case "set_caps hot reload" `Quick test_admission_set_caps_live;
        ] );
      ( "trust",
        [
          Alcotest.test_case "two disagreements quarantine" `Quick
            test_trust_two_disagreements_quarantine;
          Alcotest.test_case "probation restores on a streak" `Quick
            test_trust_probation_restores;
          Alcotest.test_case "suspicion + note_truth re-anchor" `Quick
            test_trust_suspicion_and_note_truth;
          Alcotest.test_case "check budget exhausts" `Quick test_trust_budget_exhausts;
          QCheck_alcotest.to_alcotest prop_trust_budget_never_exceeded;
        ] );
      ( "quorum",
        [
          Alcotest.test_case "overrule: tie to referees, refund, oracle out"
            `Quick test_quorum_overrule_refund_and_tie;
          Alcotest.test_case "K=3: one referee is outvoted" `Quick
            test_quorum_k3_outvoted;
          Alcotest.test_case "trust-weighted audit shares" `Quick
            test_quorum_trust_weighted_shares;
          Alcotest.test_case "oracle probation and alert mode" `Quick
            test_quorum_oracle_probation_and_alert_mode;
          Alcotest.test_case "check: a restored oracle opens no audit" `Quick
            test_check_restored_oracle_opens_no_audit;
          Alcotest.test_case "check: a caught lie is hand-checked" `Quick
            test_check_catches_a_lie;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "JSON + file roundtrip, last write wins" `Quick
            test_ledger_store_roundtrip;
          Alcotest.test_case "merge commutes and associates" `Quick
            test_ledger_merge_commutative;
          Alcotest.test_case "create_from restores state" `Quick
            test_trust_create_from;
          Alcotest.test_case "with_ledger records kept runs only" `Quick
            test_trust_with_ledger;
        ] );
      ( "tallies",
        [
          Alcotest.test_case "exact under a pool" `Quick test_tallies_exact_under_pool;
        ] );
      ( "service-trust",
        [
          Alcotest.test_case "drain races an in-flight cross-check" `Slow
            test_service_drain_races_trust_crosscheck;
          Alcotest.test_case "SIGHUP caps reload with a queued trust job" `Slow
            test_service_set_caps_during_queued_trust_job;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips and recovers" `Quick test_breaker_trips_and_recovers;
          Alcotest.test_case "half-open failure re-trips" `Quick
            test_breaker_half_open_failure_retrips;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "deterministic schedules" `Quick test_chaos_deterministic;
          Alcotest.test_case "all-zero rates are a no-op" `Quick test_chaos_none_is_noop;
          Alcotest.test_case "crash outage window" `Quick test_chaos_crash_window;
          Alcotest.test_case "truncation never passes" `Quick
            test_chaos_truncate_never_passes;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "success passthrough" `Quick test_runtime_success_passthrough;
          Alcotest.test_case "retries a transient" `Quick test_runtime_retries_transient;
          Alcotest.test_case "exhaustion degrades and trips" `Quick
            test_runtime_exhaustion_degrades_and_trips;
          Alcotest.test_case "derived contexts independent" `Quick
            test_runtime_derive_is_independent;
        ] );
      ( "policies",
        [
          Alcotest.test_case "cost-scaled per-kind knobs" `Quick test_policies_cost_scaled;
          Alcotest.test_case "runtime honors per-kind caps" `Quick
            test_runtime_honors_per_kind_caps;
        ] );
      ( "driver",
        [
          Alcotest.test_case "rate-0 translation identical" `Slow
            test_rate0_translation_identical;
          Alcotest.test_case "rate-0 no-transit identical" `Slow
            test_rate0_no_transit_identical;
          Alcotest.test_case "chaos run deterministic" `Slow test_chaos_run_deterministic;
          Alcotest.test_case "chaos pool == sequential" `Slow
            test_chaos_pool_equals_sequential;
          Alcotest.test_case "outage degrades, never crashes" `Slow
            test_outage_degrades_not_crashes;
          Alcotest.test_case "budget exhaustion (translation)" `Quick
            test_budget_exhaustion_translation;
          Alcotest.test_case "budget exhaustion (no-transit)" `Quick
            test_budget_exhaustion_no_transit;
        ] );
      ( "memo",
        [
          Alcotest.test_case "parse and draft verdicts survive chaos and lies" `Quick
            test_local_memos_survive_faults;
          Alcotest.test_case "global verdicts survive chaos and lies" `Quick
            test_global_memo_survives_faults;
          Alcotest.test_case "global verdict key" `Quick test_global_memo_key;
          Alcotest.test_case "reset empties render and global tables" `Quick
            test_memo_reset_empties_new_tables;
        ] );
      ( "durable",
        [
          Alcotest.test_case "CRC-32 check vector" `Quick test_crc32_vector;
          Alcotest.test_case "fault-free round trip" `Quick test_store_roundtrip;
          Alcotest.test_case "deterministic fault schedules" `Quick
            test_diskchaos_deterministic;
          Alcotest.test_case "triage kill mid-append" `Quick
            test_triage_kill_mid_append;
          Alcotest.test_case "admission caps all-or-nothing" `Quick
            test_parse_admission_caps;
          Alcotest.test_case "append seals a torn tail on its handle" `Quick
            test_store_append_seals_torn_tail;
          Alcotest.test_case "unterminated frame is torn" `Quick
            test_store_unterminated_frame_torn;
        ] );
      ("properties", props);
    ]
