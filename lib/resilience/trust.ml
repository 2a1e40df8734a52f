type config = { probation : int; check_budget : int; quorum : int; audit_budget : int }

let default_config = { probation = 3; check_budget = 16; quorum = 4; audit_budget = 8 }

(* The score scale: every cell starts at (and is capped by) [initial], a
   disagreement debits [debit], an agreement credits [credit], and a cell
   below [threshold] is quarantined — so two disagreements quarantine a
   kind. *)
let initial = 1.0
let debit = 0.4
let credit = 0.02
let threshold = 0.5

let clamp_config c =
  {
    probation = max 1 c.probation;
    check_budget = max 0 c.check_budget;
    quorum = max 2 c.quorum;
    audit_budget = max 0 c.audit_budget;
  }

(* ------------------------------------------------------------------ *)
(* Global counters: one record per kind plus the quorum record, each    *)
(* replaced whole under one lock, read by the bench harness and the CLI *)
(* via snapshot diffs.                                                  *)
(* ------------------------------------------------------------------ *)

type counters = {
  cross_checks : int;
  agreements : int;
  disagreements : int;
  quarantines : int;
  restores : int;
  probation_runs : int;
}

let zero =
  {
    cross_checks = 0;
    agreements = 0;
    disagreements = 0;
    quarantines = 0;
    restores = 0;
    probation_runs = 0;
  }

let add a b =
  {
    cross_checks = a.cross_checks + b.cross_checks;
    agreements = a.agreements + b.agreements;
    disagreements = a.disagreements + b.disagreements;
    quarantines = a.quarantines + b.quarantines;
    restores = a.restores + b.restores;
    probation_runs = a.probation_runs + b.probation_runs;
  }

let diff_counters before after =
  {
    cross_checks = after.cross_checks - before.cross_checks;
    agreements = after.agreements - before.agreements;
    disagreements = after.disagreements - before.disagreements;
    quarantines = after.quarantines - before.quarantines;
    restores = after.restores - before.restores;
    probation_runs = after.probation_runs - before.probation_runs;
  }

(* Quorum activity is tallied separately from the PR 8 counters above so
   that runs without collusion keep the historical trust rows and summary
   lines byte-identical. One record (not per-kind): the oracle is a single
   shared service. *)

type quorum_counters = {
  audits : int;
  overruled : int;
  outvoted : int;
  oracle_quarantines : int;
  oracle_restores : int;
  oracle_probations : int;
}

let zero_quorum =
  {
    audits = 0;
    overruled = 0;
    outvoted = 0;
    oracle_quarantines = 0;
    oracle_restores = 0;
    oracle_probations = 0;
  }

let add_quorum a b =
  {
    audits = a.audits + b.audits;
    overruled = a.overruled + b.overruled;
    outvoted = a.outvoted + b.outvoted;
    oracle_quarantines = a.oracle_quarantines + b.oracle_quarantines;
    oracle_restores = a.oracle_restores + b.oracle_restores;
    oracle_probations = a.oracle_probations + b.oracle_probations;
  }

let diff_quorum before after =
  {
    audits = after.audits - before.audits;
    overruled = after.overruled - before.overruled;
    outvoted = after.outvoted - before.outvoted;
    oracle_quarantines = after.oracle_quarantines - before.oracle_quarantines;
    oracle_restores = after.oracle_restores - before.oracle_restores;
    oracle_probations = after.oracle_probations - before.oracle_probations;
  }

let n_kinds = List.length Verifier.all_kinds
let lock = Mutex.create ()
let tallies = Array.make n_kinds zero
let quorum_tally = ref zero_quorum

let tally kind f =
  let i = Verifier.kind_index kind in
  Mutex.protect lock (fun () -> tallies.(i) <- f tallies.(i))

let tally_quorum f = Mutex.protect lock (fun () -> quorum_tally := f !quorum_tally)

type snapshot = (Verifier.kind * counters) list

let snapshot () : snapshot =
  Mutex.protect lock (fun () ->
      List.map (fun k -> (k, tallies.(Verifier.kind_index k))) Verifier.all_kinds)

let diff (before : snapshot) (after : snapshot) : snapshot =
  List.map2
    (fun (k, b) (k', a) ->
      assert (k = k');
      (k, diff_counters b a))
    before after

let totals (s : snapshot) = List.fold_left (fun acc (_, c) -> add acc c) zero s
let quorum_snapshot () = Mutex.protect lock (fun () -> !quorum_tally)

let quorum_active c =
  c.audits <> 0 || c.overruled <> 0 || c.outvoted <> 0 || c.oracle_quarantines <> 0
  || c.oracle_restores <> 0 || c.oracle_probations <> 0

(* ------------------------------------------------------------------ *)
(* Per-run ledger                                                      *)
(* ------------------------------------------------------------------ *)

type cell = {
  mutable score : float;
  mutable quarantined : bool;
  mutable streak : int;  (* consecutive agreeing probation re-runs *)
  mutable last_dirty : bool;
}

type t = {
  cfg : config;
  cells : cell array;
  (* The cross-check oracle's own pseudo-cell: debited alongside every
     overruled colluder, quarantined below the threshold like any kind. *)
  oracle_cell : cell;
  audits_by_kind : int array;
  mutable audits_spent : int;
  mutable checks_spent : int;
}

(* [last_dirty] starts true: an unvetted kind's first clean pass is itself
   suspicious — a first-round false negative must not slip through
   unchecked. *)
let fresh_cell () = { score = initial; quarantined = false; streak = 0; last_dirty = true }

let create cfg =
  {
    cfg = clamp_config cfg;
    cells = Array.init n_kinds (fun _ -> fresh_cell ());
    oracle_cell = fresh_cell ();
    audits_by_kind = Array.make n_kinds 0;
    audits_spent = 0;
    checks_spent = 0;
  }

let derive t = create t.cfg
let cell t kind = t.cells.(Verifier.kind_index kind)
let quarantined t kind = (cell t kind).quarantined
let score t kind = (cell t kind).score
let checks_spent t = t.checks_spent
let oracle_quarantined t = t.oracle_cell.quarantined
let oracle_score t = t.oracle_cell.score
let audits_spent t = t.audits_spent

(* The cell state machine, shared by the kinds and the oracle. A debit
   returns true exactly when it pushed a trusted cell below the threshold
   (entry into quarantine); a probation step lifts the quarantine after
   [probation] consecutive agreements, and a disagreement resets the
   streak. *)
let debit_cell c amount =
  c.score <- c.score -. amount;
  if (not c.quarantined) && c.score < threshold then begin
    c.quarantined <- true;
    c.streak <- 0;
    true
  end
  else false

let probation_step t c ~agree =
  if not c.quarantined then `Still
  else if agree then begin
    c.streak <- c.streak + 1;
    if c.streak >= t.cfg.probation then begin
      c.quarantined <- false;
      c.score <- initial;
      c.streak <- 0;
      `Restored t.cfg.probation
    end
    else `Still
  end
  else begin
    c.streak <- 0;
    `Still
  end

let should_check t kind ~dirty =
  let c = cell t kind in
  let suspicious = dirty || c.last_dirty in
  c.last_dirty <- dirty;
  let granted =
    if c.quarantined then false
    else if t.oracle_cell.quarantined then
      (* Alert mode: a quarantined oracle is categorical evidence of an
         active coalition with unknown membership, so every answer is
         suspicious — and free: the check budget bounds voluntary calls
         into the oracle service, while these checks resolve against the
         hand-run fallback the quarantine mandates anyway. Honest runs
         never quarantine the oracle, so the peacetime path is untouched. *)
      true
    else if suspicious && t.checks_spent < t.cfg.check_budget then begin
      t.checks_spent <- t.checks_spent + 1;
      true
    end
    else false
  in
  if granted then tally kind (fun c -> { c with cross_checks = c.cross_checks + 1 });
  granted

let note_truth t kind ~dirty = (cell t kind).last_dirty <- dirty

let agree t kind =
  let c = cell t kind in
  c.score <- Float.min initial (c.score +. credit);
  tally kind (fun c -> { c with agreements = c.agreements + 1 })

let disagree t kind =
  let q = debit_cell (cell t kind) debit in
  tally kind (fun c ->
      {
        c with
        disagreements = c.disagreements + 1;
        quarantines = c.quarantines + Bool.to_int q;
      });
  if q then `Quarantined else `Ok

let probation t kind ~agree =
  let r = probation_step t (cell t kind) ~agree in
  tally kind (fun c ->
      {
        c with
        probation_runs = c.probation_runs + 1;
        restores = c.restores + Bool.to_int (r <> `Still);
      });
  r

(* ------------------------------------------------------------------ *)
(* Quorum cross-checks (the collusion defense)                         *)
(* ------------------------------------------------------------------ *)

let should_audit t kind =
  let c = cell t kind in
  if
    t.cfg.audit_budget <= 0
    || t.audits_spent >= t.cfg.audit_budget
    || t.oracle_cell.quarantined || c.quarantined
  then false
  else begin
    (* Trust-informed scheduling: each kind's share of the audit budget is
       proportional to its current trust weight, with a floor of one and a
       ceiling division — a full-trust kind among five gets
       ceil(8 * 1.0 / 5.0) = 2 audits, the two needed to quarantine a
       colluder at the default debit/threshold. *)
    let sum = Array.fold_left (fun acc c -> acc +. Float.max 0.0 c.score) 0.0 t.cells in
    let share =
      if sum <= 0.0 then t.cfg.audit_budget
      else
        max 1
          (int_of_float
             (Float.ceil (float_of_int t.cfg.audit_budget *. Float.max 0.0 c.score /. sum)))
    in
    let ix = Verifier.kind_index kind in
    if t.audits_by_kind.(ix) >= share then false
    else begin
      t.audits_by_kind.(ix) <- t.audits_by_kind.(ix) + 1;
      t.audits_spent <- t.audits_spent + 1;
      tally_quorum (fun q -> { q with audits = q.audits + 1 });
      true
    end
  end

let quorum_verdict t kind =
  (* Weighted vote over a K-member quorum: the suspect kind and the oracle
     service form the lie camp (they just agreed); the hand-run referee
     answer stands in for the quorum's max 1 (K-2) remaining independent
     members, each voting with full weight. Referees win ties — agreement
     between two already-suspect parties must not outrank an independent
     hand re-run of equal weight. *)
  let camp = Float.max 0.0 (score t kind) +. Float.max 0.0 t.oracle_cell.score in
  let referees = float_of_int (max 1 (t.cfg.quorum - 2)) in
  if referees >= camp then begin
    (* Refund the audit: the budget bounds what auditing *honest*
       agreements may cost, and an overrule just proved this one was
       collusion — detection pressure must not exhaust itself while the
       lies continue. Refunds cannot run away: two overrules quarantine
       the oracle, and a quarantined oracle stops every audit. *)
    t.audits_spent <- max 0 (t.audits_spent - 1);
    let ix = Verifier.kind_index kind in
    t.audits_by_kind.(ix) <- max 0 (t.audits_by_kind.(ix) - 1);
    let kind_quarantined = disagree t kind = `Quarantined in
    (* The oracle is debited at double weight: a kind's lie is a single
       noisy signal, but an overruled clean-agreement is corroborated by
       the whole referee quorum — categorical evidence the service every
       cross-check trusts has vouched for a lie. At the default
       debit/threshold one proven collusion quarantines it. *)
    let oracle_quarantined = debit_cell t.oracle_cell (2. *. debit) in
    tally_quorum (fun q ->
        {
          q with
          overruled = q.overruled + 1;
          oracle_quarantines = q.oracle_quarantines + Bool.to_int oracle_quarantined;
        });
    `Overruled (kind_quarantined, oracle_quarantined)
  end
  else begin
    tally_quorum (fun q -> { q with outvoted = q.outvoted + 1 });
    `Outvoted
  end

let oracle_probation t ~agree =
  let r = probation_step t t.oracle_cell ~agree in
  tally_quorum (fun q ->
      {
        q with
        oracle_probations = q.oracle_probations + 1;
        oracle_restores = q.oracle_restores + Bool.to_int (r <> `Still);
      });
  r

(* ------------------------------------------------------------------ *)
(* Persistent trust ledger (Exec.Checkpoint discipline)                *)
(* ------------------------------------------------------------------ *)

module Ledger_store = struct
  type cell_state = { s_score : float; s_quarantined : bool }

  type entry = {
    kinds : (Verifier.kind * cell_state) list;
    oracle : cell_state;
    counters : counters;
    quorum : quorum_counters;
  }

  let cell_state_to_json (c : cell_state) : Netcore.Json.t =
    Obj [ ("score", Float c.s_score); ("quarantined", Bool c.s_quarantined) ]

  let cell_state_of_json j =
    match (Netcore.Json.member "score" j, Netcore.Json.member "quarantined" j) with
    | Some s, Some q -> (
        match (Netcore.Json.to_float s, Netcore.Json.to_bool q) with
        | Some s_score, Some s_quarantined -> Some { s_score; s_quarantined }
        | _ -> None)
    | _ -> None

  let counters_to_json (c : counters) : Netcore.Json.t =
    Obj
      [
        ("checks", Int c.cross_checks);
        ("agree", Int c.agreements);
        ("disagree", Int c.disagreements);
        ("quarantines", Int c.quarantines);
        ("restores", Int c.restores);
        ("probation", Int c.probation_runs);
      ]

  let counters_of_json j =
    let f k = Option.bind (Netcore.Json.member k j) Netcore.Json.to_int in
    match (f "checks", f "agree", f "disagree", f "quarantines", f "restores", f "probation")
    with
    | Some cross_checks, Some agreements, Some disagreements, Some quarantines, Some restores,
      Some probation_runs ->
        Some { cross_checks; agreements; disagreements; quarantines; restores; probation_runs }
    | _ -> None

  let quorum_to_json (q : quorum_counters) : Netcore.Json.t =
    Obj
      [
        ("audits", Int q.audits);
        ("overruled", Int q.overruled);
        ("outvoted", Int q.outvoted);
        ("oracle_quarantines", Int q.oracle_quarantines);
        ("oracle_restores", Int q.oracle_restores);
        ("oracle_probations", Int q.oracle_probations);
      ]

  let quorum_of_json j =
    let f k = Option.bind (Netcore.Json.member k j) Netcore.Json.to_int in
    match
      ( f "audits",
        f "overruled",
        f "outvoted",
        f "oracle_quarantines",
        f "oracle_restores",
        f "oracle_probations" )
    with
    | Some audits, Some overruled, Some outvoted, Some oracle_quarantines, Some oracle_restores,
      Some oracle_probations ->
        Some
          {
            audits;
            overruled;
            outvoted;
            oracle_quarantines;
            oracle_restores;
            oracle_probations;
          }
    | _ -> None

  let entry_to_json (e : entry) : Netcore.Json.t =
    Obj
      [
        ( "kinds",
          Netcore.Json.Obj
            (List.map (fun (k, c) -> (Verifier.kind_name k, cell_state_to_json c)) e.kinds) );
        ("oracle", cell_state_to_json e.oracle);
        ("counters", counters_to_json e.counters);
        ("quorum", quorum_to_json e.quorum);
      ]

  let entry_of_json j =
    match
      ( Option.bind (Netcore.Json.member "kinds" j) Netcore.Json.to_obj,
        Option.bind (Netcore.Json.member "oracle" j) cell_state_of_json,
        Option.bind (Netcore.Json.member "counters" j) counters_of_json,
        Option.bind (Netcore.Json.member "quorum" j) quorum_of_json )
    with
    | Some fields, Some oracle, Some counters, Some quorum ->
        let kinds =
          List.filter_map
            (fun (name, cj) ->
              match (Verifier.kind_of_name name, cell_state_of_json cj) with
              | Some k, Some c -> Some (k, c)
              | _ -> None)
            fields
        in
        if List.length kinds = List.length fields then Some { kinds; oracle; counters; quorum }
        else None
    | _ -> None

  (* Commutative, associative state merge: a kind quarantined in either
     entry stays quarantined, scores take the minimum — the conservative
     fold that makes ledger deltas order-insensitive within a seed tier.
     Counters sum (they are per-run deltas). *)
  let merge_cell a b =
    { s_score = Float.min a.s_score b.s_score; s_quarantined = a.s_quarantined || b.s_quarantined }

  let merge a b =
    {
      kinds =
        List.filter_map
          (fun k ->
            match (List.assoc_opt k a.kinds, List.assoc_opt k b.kinds) with
            | Some ca, Some cb -> Some (k, merge_cell ca cb)
            | (Some _ as c), None | None, (Some _ as c) -> Option.map (fun c -> (k, c)) c
            | None, None -> None)
          Verifier.all_kinds;
      oracle = merge_cell a.oracle b.oracle;
      counters = add a.counters b.counters;
      quorum = add_quorum a.quorum b.quorum;
    }

  type handle = Exec.Checkpoint.t

  let open_ ?truncate path : handle = Exec.Checkpoint.open_ ?truncate path
  let record (h : handle) ~seed e = Exec.Checkpoint.record h ~seed (entry_to_json e)
  let close (h : handle) = Exec.Checkpoint.close h

  (* Fold the surviving (last-write-wins) lines in seed order: states merge
     conservatively, per-seed counter deltas sum — so a resumed sweep can
     reprint the exact trust summary of an uninterrupted one. *)
  let load path =
    Exec.Checkpoint.load path
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.fold_left
         (fun acc (_, j) ->
           match entry_of_json j with
           | None -> acc
           | Some e -> Some (match acc with None -> e | Some a -> merge a e))
         None
end

let state_of t ~counters ~quorum : Ledger_store.entry =
  {
    kinds =
      List.map
        (fun k ->
          let c = cell t k in
          (k, { Ledger_store.s_score = c.score; s_quarantined = c.quarantined }))
        Verifier.all_kinds;
    oracle =
      { Ledger_store.s_score = t.oracle_cell.score; s_quarantined = t.oracle_cell.quarantined };
    counters;
    quorum;
  }

(* Probation streaks deliberately do not persist: a restart restarts
   probation from zero, quarantine itself survives. *)
let restore_cell c (s : Ledger_store.cell_state) =
  c.score <- Float.min initial s.s_score;
  c.quarantined <- s.s_quarantined

let create_from cfg (e : Ledger_store.entry) =
  let t = create cfg in
  List.iter (fun (k, s) -> restore_cell (cell t k) s) e.kinds;
  restore_cell t.oracle_cell e.oracle;
  t

(* ------------------------------------------------------------------ *)
(* Ledger session                                                      *)
(* ------------------------------------------------------------------ *)

type ledger = { handle : Ledger_store.handle; mutable state : Ledger_store.entry option }

let open_ledger path =
  let state = Ledger_store.load path in
  (match state with
  | None -> Printf.eprintf "trust-ledger: recording to %s\n%!" path
  | Some _ -> Printf.eprintf "trust-ledger: resuming trust state from %s\n%!" path);
  { handle = Ledger_store.open_ ~truncate:false path; state }

let ledger_state l = l.state
let close_ledger l = Ledger_store.close l.handle

let with_ledger ledger ~seed ~keep f =
  match ledger with
  | None -> f None
  | Some l ->
      let t =
        match l.state with
        | Some e -> create_from default_config e
        | None -> create default_config
      in
      let counters0 = snapshot () in
      let quorum0 = quorum_snapshot () in
      let r = f (Some t) in
      if keep r then begin
        let e =
          state_of t
            ~counters:(totals (diff counters0 (snapshot ())))
            ~quorum:(diff_quorum quorum0 (quorum_snapshot ()))
        in
        Ledger_store.record l.handle ~seed e;
        l.state <- Some (match l.state with None -> e | Some a -> Ledger_store.merge a e)
      end;
      r
