type summary = {
  runs : int;
  converged : int;
  mean_auto : float;
  mean_human : float;
  mean_leverage : float;
  stddev_leverage : float;
  min_leverage : float;
  max_leverage : float;
  infinite_leverage : int;
  stalled : int;
  oscillating : int;
}

let summarize transcripts =
  let n = List.length transcripts in
  if n = 0 then
    {
      runs = 0;
      converged = 0;
      mean_auto = 0.;
      mean_human = 0.;
      mean_leverage = 0.;
      stddev_leverage = 0.;
      min_leverage = 0.;
      max_leverage = 0.;
      infinite_leverage = 0;
      stalled = 0;
      oscillating = 0;
    }
  else
    let fn = float_of_int n in
    let leverages = List.map Driver.leverage transcripts in
    (* A zero-human transcript has infinite leverage (see
       {!Driver.leverage}); the mean/stddev/range are over the finite runs
       only, with the infinite ones counted separately rather than silently
       turning every aggregate into nan/inf. *)
    let finite = List.filter Float.is_finite leverages in
    let n_finite = List.length finite in
    let infinite_leverage = n - n_finite in
    let mean_leverage =
      if n_finite = 0 then 0.
      else List.fold_left ( +. ) 0. finite /. float_of_int n_finite
    in
    let stddev_leverage =
      if n_finite = 0 then 0.
      else
        sqrt
          (List.fold_left (fun acc l -> acc +. ((l -. mean_leverage) ** 2.)) 0. finite
          /. float_of_int n_finite)
    in
    {
      runs = n;
      converged =
        List.length (List.filter (fun (t : Driver.transcript) -> t.Driver.converged) transcripts);
      mean_auto =
        List.fold_left (fun acc (t : Driver.transcript) -> acc +. float_of_int t.Driver.auto_prompts) 0. transcripts
        /. fn;
      mean_human =
        List.fold_left (fun acc (t : Driver.transcript) -> acc +. float_of_int t.Driver.human_prompts) 0. transcripts
        /. fn;
      mean_leverage;
      stddev_leverage;
      min_leverage = (if n_finite = 0 then 0. else List.fold_left min infinity finite);
      max_leverage = (if n_finite = 0 then 0. else List.fold_left max neg_infinity finite);
      infinite_leverage;
      stalled =
        List.length
          (List.filter
             (fun (t : Driver.transcript) ->
               match t.Driver.certificate with
               | Some (Driver.Stalled_out _) -> true
               | _ -> false)
             transcripts);
      oscillating =
        List.length
          (List.filter
             (fun (t : Driver.transcript) ->
               match t.Driver.certificate with
               | Some (Driver.Oscillating _) -> true
               | _ -> false)
             transcripts);
    }

let translation_summary ?(runs = 20) ?pool ~cisco_text () =
  let transcripts =
    Exec.Sweep.run_seeds ?pool ~seeds:(Exec.Sweep.seeds ~base:1000 ~n:runs)
      (fun seed -> (Driver.run_translation ~seed ~cisco_text ()).Driver.transcript)
  in
  summarize transcripts

let no_transit_summary ?(runs = 20) ?(use_iips = true) ?pool ~routers () =
  let transcripts =
    Exec.Sweep.run_seeds ?pool ~seeds:(Exec.Sweep.seeds ~base:2000 ~n:runs)
      (fun seed -> (Driver.run_no_transit ~seed ~use_iips ~routers ()).Driver.transcript)
  in
  summarize transcripts

let pp_summary ppf s =
  Format.fprintf ppf
    "runs=%d converged=%d auto=%.1f human=%.1f leverage=%.1fx +/- %.1f (min %.1f, max %.1f)"
    s.runs s.converged s.mean_auto s.mean_human s.mean_leverage s.stddev_leverage
    s.min_leverage s.max_leverage;
  if s.infinite_leverage > 0 then
    Format.fprintf ppf " [%d runs with infinite leverage]" s.infinite_leverage;
  if s.stalled > 0 then Format.fprintf ppf " [%d stalled]" s.stalled;
  if s.oscillating > 0 then Format.fprintf ppf " [%d oscillating]" s.oscillating

(* Tally of convergence certificates over a hardened sweep, for the A1
   bench table: one row per distinct certificate string, counted, in
   first-seen order. Plain transcripts (no certificate) tally under
   "(none)". *)
let certificates transcripts =
  let order = ref [] in
  let counts = Hashtbl.create 7 in
  List.iter
    (fun (t : Driver.transcript) ->
      let key =
        match t.Driver.certificate with
        | None -> "(none)"
        | Some c -> Driver.certificate_to_string c
      in
      if not (Hashtbl.mem counts key) then order := key :: !order;
      Hashtbl.replace counts key (1 + try Hashtbl.find counts key with Not_found -> 0))
    transcripts;
  List.rev_map (fun key -> (key, Hashtbl.find counts key)) !order

(* ------------------------------------------------------------------ *)
(* Performance instrumentation                                         *)
(* ------------------------------------------------------------------ *)

type perf = {
  wall_s : float;
  pool_size : int;
  memo_hits : int;
  memo_misses : int;
  pool_utilization : float;
  verifier : (Resilience.Verifier.kind * Resilience.Stats.counters) list;
  supervisor : Exec.Supervisor.counters;
  trust : Resilience.Trust.snapshot;
  quorum : Resilience.Trust.quorum_counters;
}

let verifier_totals p =
  List.fold_left
    (fun acc (_, c) -> Resilience.Stats.add acc c)
    Resilience.Stats.zero p.verifier

let verifier_rows p =
  List.filter_map
    (fun ((k : Resilience.Verifier.kind), (c : Resilience.Stats.counters)) ->
      if c.Resilience.Stats.attempts = 0 && c.Resilience.Stats.degraded = 0 then
        None
      else
        Some
          [
            Resilience.Verifier.kind_name k;
            string_of_int c.Resilience.Stats.attempts;
            string_of_int c.Resilience.Stats.retries;
            string_of_int c.Resilience.Stats.failures;
            string_of_int c.Resilience.Stats.breaker_trips;
            string_of_int c.Resilience.Stats.degraded;
            string_of_int c.Resilience.Stats.max_attempts;
          ])
    p.verifier

let verifier_table ~title p =
  let t = verifier_totals p in
  Report.table ~title
    ~header:[ "verifier"; "attempts"; "retries"; "failures"; "trips"; "degraded"; "max att" ]
    (verifier_rows p)
    ~footer:
      ("total"
      :: List.map string_of_int
           [
             t.Resilience.Stats.attempts;
             t.Resilience.Stats.retries;
             t.Resilience.Stats.failures;
             t.Resilience.Stats.breaker_trips;
             t.Resilience.Stats.degraded;
             t.Resilience.Stats.max_attempts;
           ])

let trust_totals p = Resilience.Trust.totals p.trust

let trust_rows p =
  List.filter_map
    (fun ((k : Resilience.Verifier.kind), (c : Resilience.Trust.counters)) ->
      if c.Resilience.Trust.cross_checks = 0 && c.Resilience.Trust.probation_runs = 0 then
        None
      else
        Some
          [
            Resilience.Verifier.kind_name k;
            string_of_int c.Resilience.Trust.cross_checks;
            string_of_int c.Resilience.Trust.agreements;
            string_of_int c.Resilience.Trust.disagreements;
            string_of_int c.Resilience.Trust.quarantines;
            string_of_int c.Resilience.Trust.restores;
            string_of_int c.Resilience.Trust.probation_runs;
          ])
    p.trust

let trust_header =
  [ "verifier"; "checks"; "agree"; "lies"; "quarantines"; "restores"; "probation" ]

let memo_hit_rate p =
  let total = p.memo_hits + p.memo_misses in
  if total = 0 then 0. else float_of_int p.memo_hits /. float_of_int total

let measure ?pool f =
  let m0 = Exec.Memo.stats () in
  let v0 = Resilience.Stats.snapshot () in
  let t0 = Resilience.Trust.snapshot () in
  let q0 = Resilience.Trust.quorum_snapshot () in
  let s0 = Exec.Supervisor.stats () in
  let p0 = Option.map Exec.Pool.stats pool in
  let r, wall_s = Exec.Sweep.timed f in
  let m1 = Exec.Memo.stats () in
  let v1 = Resilience.Stats.snapshot () in
  let utilization =
    match (pool, p0) with
    | Some p, Some s0 ->
        let s1 = Exec.Pool.stats p in
        let busy = s1.Exec.Pool.busy_s -. s0.Exec.Pool.busy_s in
        let denom = wall_s *. float_of_int s1.Exec.Pool.domains in
        if denom <= 0. then 0. else Float.min 1. (busy /. denom)
    | _ -> 0.
  in
  ( r,
    {
      wall_s;
      pool_size = (match pool with Some p -> Exec.Pool.size p | None -> 0);
      memo_hits = m1.Exec.Memo.hits - m0.Exec.Memo.hits;
      memo_misses = m1.Exec.Memo.misses - m0.Exec.Memo.misses;
      pool_utilization = utilization;
      verifier = Resilience.Stats.diff v0 v1;
      supervisor = Exec.Supervisor.diff s0 (Exec.Supervisor.stats ());
      trust = Resilience.Trust.diff t0 (Resilience.Trust.snapshot ());
      quorum = Resilience.Trust.diff_quorum q0 (Resilience.Trust.quorum_snapshot ());
    } )

let pp_perf ppf p =
  Format.fprintf ppf
    "wall %.3fs, pool size %d (utilization %.0f%%), memo %d hits / %d misses (%.0f%% hit rate)"
    p.wall_s p.pool_size (100. *. p.pool_utilization) p.memo_hits p.memo_misses
    (100. *. memo_hit_rate p);
  let t = verifier_totals p in
  if t.Resilience.Stats.attempts > 0 || t.Resilience.Stats.degraded > 0 then
    Format.fprintf ppf
      ", verifiers %d attempts / %d retries / %d trips / %d degraded"
      t.Resilience.Stats.attempts t.Resilience.Stats.retries
      t.Resilience.Stats.breaker_trips t.Resilience.Stats.degraded;
  let tr = trust_totals p in
  if tr.Resilience.Trust.cross_checks > 0 || tr.Resilience.Trust.probation_runs > 0 then
    Format.fprintf ppf ", trust %d checks / %d lies / %d quarantines"
      tr.Resilience.Trust.cross_checks tr.Resilience.Trust.disagreements
      tr.Resilience.Trust.quarantines;
  (* Quorum activity prints only when the collusion defense actually moved,
     so every pre-collusion perf line stays byte-identical. *)
  if Resilience.Trust.quorum_active p.quorum then
    Format.fprintf ppf ", quorum %d audits / %d overruled / %d oracle quarantines"
      p.quorum.Resilience.Trust.audits p.quorum.Resilience.Trust.overruled
      p.quorum.Resilience.Trust.oracle_quarantines;
  let sup = p.supervisor in
  if sup.Exec.Supervisor.losses > 0 || sup.Exec.Supervisor.abandoned > 0 then
    Format.fprintf ppf
      ", supervisor %d losses / %d requeues / %d abandoned"
      sup.Exec.Supervisor.losses sup.Exec.Supervisor.requeues
      sup.Exec.Supervisor.abandoned
