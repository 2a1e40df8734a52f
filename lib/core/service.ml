(* The hardened daemon behind `cosynth serve`: Exec.Serve supplies the
   transport and lifecycle mechanics; this module supplies the policy —
   job dispatch, admission, deadlines, budget clamping, health/triage.
   The CLI, the S2 overload bench gate and the drain tests all run this
   exact handler, so the hardening that CI gates is the hardening that
   ships. *)

module J = Netcore.Json

type config = {
  domains : int option;
  round_budget_cap : int;
  stage_budget_cap : int;
  admission : Resilience.Admission.config;
  admission_file : string option;
  io_timeout_ms : int;
  drain_grace_ms : int;
  handle_signals : bool;
  debug_jobs : bool;
  triage : string option;
  restarts : int;
  trust_ledger : string option;
}

let default_config =
  {
    domains = None;
    round_budget_cap = 64;
    stage_budget_cap = 32;
    admission = Resilience.Admission.default_config;
    admission_file = None;
    io_timeout_ms = 30_000;
    drain_grace_ms = 1_000;
    handle_signals = false;
    debug_jobs = false;
    triage = None;
    restarts = 0;
    trust_ledger = None;
  }

type summary = { served : int; shed : int; timed_out : int; drained : bool }

let ok fields = J.Obj (("ok", J.Bool true) :: fields)
let fail msg = J.Obj [ ("ok", J.Bool false); ("error", J.String msg) ]
let jstr name req = Option.bind (J.member name req) J.to_str
let jint name req = Option.bind (J.member name req) J.to_int

(* Strict validation for a SIGHUP admission-caps reload. The file is
   typically rewritten by an operator or a config pusher moments before
   the signal lands, so "half-written" is a live failure mode, not a
   theoretical one: reject anything that does not parse, is not an
   object, or carries a non-integer / out-of-range value — the caller
   keeps the caps in force. Missing keys keep their current values (a
   partial file adjusts one cap); unknown keys are ignored. *)
let parse_admission_caps ~(current : Resilience.Admission.config) text =
  match J.of_string text with
  | Error e -> Error ("malformed JSON: " ^ e)
  | Ok json -> (
      match J.to_obj json with
      | None -> Error "not a JSON object"
      | Some _ -> (
          let field name ~min default =
            match J.member name json with
            | None -> Ok default
            | Some v -> (
                match J.to_int v with
                | Some n when n >= min -> Ok n
                | Some n ->
                    Error
                      (Printf.sprintf "%s: %d out of range (min %d)" name n min)
                | None -> Error (name ^ ": not an integer"))
          in
          let ( let* ) = Result.bind in
          let* max_in_flight =
            field "max_in_flight" ~min:1 current.Resilience.Admission.max_in_flight
          in
          let* max_queue =
            field "max_queue" ~min:0 current.Resilience.Admission.max_queue
          in
          let* max_per_client =
            field "max_per_client" ~min:1
              current.Resilience.Admission.max_per_client
          in
          let* max_deadline_ms =
            field "max_deadline_ms" ~min:1
              current.Resilience.Admission.max_deadline_ms
          in
          let* retry_after_ms =
            field "retry_after_ms" ~min:0
              current.Resilience.Admission.retry_after_ms
          in
          Ok
            {
              Resilience.Admission.max_in_flight;
              max_queue;
              max_per_client;
              max_deadline_ms;
              retry_after_ms;
            }))

let shed_frame ~retry_after_ms ~reason =
  J.Obj
    [
      ("ok", J.Bool false);
      ( "error",
        J.String ("overloaded: " ^ Resilience.Admission.reason_to_string reason)
      );
      ("shed", J.Bool true);
      ("retry_after_ms", J.Int retry_after_ms);
    ]

let timeout_frame ~deadline_ms crash =
  J.Obj
    [
      ("ok", J.Bool false);
      ("error", J.String (Resilience.Guard.crash_to_string crash));
      ("timeout", J.Bool true);
      ("deadline_ms", J.Int deadline_ms);
    ]

let serve ?(on_ready = fun ~domains:_ -> ()) ~socket_path cfg =
  if cfg.triage <> None then Resilience.Guard.reset ();
  (* The whole point of the daemon: pay for domain spawn once, then keep
     the pool, the parse-check memo and the verifier machinery warm across
     every request of every client. *)
  let pool =
    match cfg.domains with
    | Some d -> Exec.Pool.create ~domains:d ()
    | None -> Exec.Pool.create ()
  in
  let adm = Resilience.Admission.create cfg.admission in
  (* The daemon's persistent trust layer: the ledger is loaded once at
     start (a quarantine earned before a restart — or recorded by a sweep
     that shares the file — is in force for the first request) and every
     trust-armed work job appends one fsync'd line. Trust-armed synthesis
     jobs serialize on [trust_m]: the ledger threads state from job to job
     exactly like a sequential sweep, and the process-global counter
     deltas each line carries stay attributable to one job. Control-plane
     jobs, [parse] and [sleep] are untouched, as is everything when no
     ledger is configured — the unloaded reply frames then stay
     byte-identical to the trust-free daemon's. *)
  let trust_m = Mutex.create () in
  let ledger = Option.map Resilience.Trust.open_ledger cfg.trust_ledger in
  (* Run one synthesis job under the ledger, keyed on the request seed. *)
  let with_trust ~seed f =
    match ledger with
    | None -> f None
    | Some _ ->
        Mutex.protect trust_m (fun () ->
            Resilience.Trust.with_ledger ledger ~seed ~keep:(fun _ -> true) f)
  in
  let t0 = Unix.gettimeofday () in
  let m = Mutex.create () in
  let served = ref 0 in
  let timed_out = ref 0 in
  let reloads = ref 0 in
  let reload_rejected = ref 0 in
  let accepting = ref true in
  let drained = ref false in
  let locked f =
    Mutex.lock m;
    let v = f () in
    Mutex.unlock m;
    v
  in
  (* Per-client tick budgets: a request may lower the resilience round /
     stage budget below the server's cap, never raise it — one greedy
     client cannot buy itself an unbounded verifier loop. *)
  let resilience_of req =
    let rb =
      match jint "budget" req with
      | Some b -> max 1 (min b cfg.round_budget_cap)
      | None -> cfg.round_budget_cap
    in
    Resilience.Runtime.config ~round_budget:rb
      ~stage_budget:(min cfg.stage_budget_cap rb) ()
  in
  let work_fields job req =
    match job with
    | "sleep" ->
        (* Debug-only: an admitted, deadline-bounded delay — the load the
           overload gate and the drain tests saturate the daemon with. *)
        let ms = Option.value ~default:100 (jint "ms" req) in
        Thread.delay (float_of_int (max 0 ms) /. 1000.);
        [ ("slept_ms", J.Int ms) ]
    | "parse" ->
        let dialect =
          match jstr "dialect" req with
          | Some ("junos" | "juniper") -> Batfish.Parse_check.Junos
          | _ -> Batfish.Parse_check.Cisco_ios
        in
        let text = Option.value ~default:"" (jstr "text" req) in
        let _, diags = Exec.Memo.check dialect text in
        [
          ( "errors",
            J.Int (List.length (List.filter Netcore.Diag.is_error diags)) );
          ( "diags",
            J.List (List.map (fun d -> J.String (Netcore.Diag.to_string d)) diags)
          );
        ]
    | "translate" ->
        let seed = Option.value ~default:42 (jint "seed" req) in
        let text =
          Option.value ~default:Cisco.Samples.border_router (jstr "text" req)
        in
        let r =
          with_trust ~seed (fun trust_ledger ->
              Driver.run_translation ~seed ?trust_ledger
                ~resilience:(resilience_of req) ~cisco_text:text ())
        in
        let t = r.Driver.transcript in
        [
          ("auto", J.Int t.Driver.auto_prompts);
          ("human", J.Int t.Driver.human_prompts);
          ("rounds", J.Int t.Driver.rounds);
          ("converged", J.Bool t.Driver.converged);
          ("verified", J.Bool r.Driver.verified);
        ]
    | "synth" ->
        let seed = Option.value ~default:42 (jint "seed" req) in
        let routers = Option.value ~default:7 (jint "routers" req) in
        let r =
          with_trust ~seed (fun trust_ledger ->
              Driver.run_no_transit ~seed ~pool ?trust_ledger
                ~resilience:(resilience_of req) ~routers ())
        in
        let t = r.Driver.transcript in
        [
          ("auto", J.Int t.Driver.auto_prompts);
          ("human", J.Int t.Driver.human_prompts);
          ("rounds", J.Int t.Driver.rounds);
          ("converged", J.Bool t.Driver.converged);
          ("global_ok", J.Bool r.Driver.global_ok);
        ]
    | _ ->
        (* repair: the incremental policy-addition loop — start from the
           verified network, add the prepend policy, repair any
           interference the verifiers catch. *)
        let seed = Option.value ~default:42 (jint "seed" req) in
        let routers = Option.value ~default:5 (jint "routers" req) in
        let r =
          with_trust ~seed (fun trust_ledger ->
              Driver.run_incremental ~seed ?trust_ledger
                ~resilience:(resilience_of req) ~routers ())
        in
        let t = r.Driver.inc_transcript in
        [
          ("auto", J.Int t.Driver.auto_prompts);
          ("human", J.Int t.Driver.human_prompts);
          ("rounds", J.Int t.Driver.rounds);
          ("converged", J.Bool t.Driver.converged);
          ("specs_hold", J.Bool r.Driver.specs_hold);
          ("global_ok", J.Bool r.Driver.global_ok);
          ("interference_caught", J.Bool r.Driver.interference_caught);
        ]
  in
  let admitted_work ~client job req =
    let name =
      match jstr "client" req with
      | Some c -> c
      | None -> "conn-" ^ string_of_int client
    in
    match Resilience.Admission.admit adm ~client:name with
    | Resilience.Admission.Shed { retry_after_ms; reason } ->
        Exec.Serve.Reply (shed_frame ~retry_after_ms ~reason)
    | Resilience.Admission.Admitted ticket -> (
        (* The caps in force, not the boot-time ones: a SIGHUP reload that
           raised max_deadline_ms must govern the very next request. *)
        let deadline_ms =
          Resilience.Admission.clamp_deadline (Resilience.Admission.config adm)
            (jint "deadline_ms" req)
        in
        (* The Guard is the crash boundary and the deadline is enforced on
           its watchdog: a bug or an overrun anywhere in the loop answers
           this one request with an error/timeout frame; the daemon and
           its warm state survive. The admission slot is released in
           [on_settled] — the only point that is reached exactly once
           whether the job completed in time or was abandoned past its
           deadline. *)
        match
          Resilience.Guard.run_deadline ~deadline_ms ~fingerprint:name
            ~on_settled:(fun () -> Resilience.Admission.release adm ticket)
            ~label:("serve:" ^ job)
            (fun () -> work_fields job req)
        with
        | Ok fields -> Exec.Serve.Reply (ok fields)
        | Error c when c.Resilience.Guard.constructor = "Deadline_exceeded" ->
            locked (fun () -> incr timed_out);
            Exec.Serve.Reply (timeout_frame ~deadline_ms c)
        | Error c -> Exec.Serve.Reply (fail (Resilience.Guard.crash_to_string c)))
  in
  (* SIGHUP: re-read the admission caps from [admission_file] and swap them
     in without draining (queued waiters re-evaluate against the new caps
     immediately; running jobs keep their tickets). Missing keys keep their
     current values, so a partial file adjusts one cap. An unreadable,
     half-written or otherwise invalid file keeps the caps in force — a
     bad reload must never degrade a healthy daemon — but still counts as
     a reload (so operators can see their signal arrived) and bumps
     [reload_rejected] in health/stats (so they can see it was refused
     rather than silently half-applied). *)
  let reload_admission () =
    locked (fun () -> incr reloads);
    match cfg.admission_file with
    | None -> ()
    | Some path -> (
        let reject why =
          locked (fun () -> incr reload_rejected);
          Printf.eprintf "reload: %s: %s; keeping current caps\n%!" path why
        in
        match
          try Ok (In_channel.with_open_bin path In_channel.input_all)
          with Sys_error e -> Error e
        with
        | Error e -> reject ("cannot read: " ^ e)
        | Ok text -> (
            match
              parse_admission_caps ~current:(Resilience.Admission.config adm)
                text
            with
            | Error why -> reject why
            | Ok caps -> Resilience.Admission.set_caps adm caps))
  in
  (* Trust state for the health/stats frames — present only when a ledger
     is configured, so unconfigured daemons keep their exact frame shape.
     Health gets the operator's triage view (who is quarantined right
     now); stats gets the full cumulative counters. *)
  let trust_state () =
    Mutex.protect trust_m (fun () -> Option.bind ledger Resilience.Trust.ledger_state)
  in
  let trust_health_fields () =
    match cfg.trust_ledger with
    | None -> []
    | Some _ ->
        let quarantined, oracle_q, lies, collusions =
          match trust_state () with
          | None -> ([], false, 0, 0)
          | Some e ->
              ( List.filter_map
                  (fun (k, (c : Resilience.Trust.Ledger_store.cell_state)) ->
                    if c.Resilience.Trust.Ledger_store.s_quarantined then
                      Some (J.String (Resilience.Verifier.kind_name k))
                    else None)
                  e.Resilience.Trust.Ledger_store.kinds,
                e.Resilience.Trust.Ledger_store.oracle
                  .Resilience.Trust.Ledger_store.s_quarantined,
                e.Resilience.Trust.Ledger_store.counters
                  .Resilience.Trust.disagreements,
                e.Resilience.Trust.Ledger_store.quorum.Resilience.Trust.overruled )
        in
        [
          ( "trust",
            J.Obj
              [
                ("quarantined", J.List quarantined);
                ("oracle_quarantined", J.Bool oracle_q);
                ("lies_detected", J.Int lies);
                ("collusions_detected", J.Int collusions);
              ] );
        ]
  in
  let trust_stats_fields () =
    match cfg.trust_ledger with
    | None -> []
    | Some _ ->
        let c, q, oracle_q =
          match trust_state () with
          | None ->
              (Resilience.Trust.zero, Resilience.Trust.zero_quorum, false)
          | Some e ->
              ( e.Resilience.Trust.Ledger_store.counters,
                e.Resilience.Trust.Ledger_store.quorum,
                e.Resilience.Trust.Ledger_store.oracle
                  .Resilience.Trust.Ledger_store.s_quarantined )
        in
        [
          ( "trust",
            J.Obj
              [
                ("checks", J.Int c.Resilience.Trust.cross_checks);
                ("lies_detected", J.Int c.Resilience.Trust.disagreements);
                ("quarantines", J.Int c.Resilience.Trust.quarantines);
                ("restores", J.Int c.Resilience.Trust.restores);
                ("audits", J.Int q.Resilience.Trust.audits);
                ("collusions_detected", J.Int q.Resilience.Trust.overruled);
                ( "oracle_quarantines",
                  J.Int q.Resilience.Trust.oracle_quarantines );
                ("oracle_restores", J.Int q.Resilience.Trust.oracle_restores);
                ("oracle_quarantined", J.Bool oracle_q);
              ] );
        ]
  in
  let handle ~client req =
    locked (fun () -> incr served);
    let job = Option.value ~default:"" (jstr "job" req) in
    match job with
    | "ping" ->
        Exec.Serve.Reply (ok [ ("pong", J.Bool true); ("client", J.Int client) ])
    | "shutdown" ->
        Exec.Serve.Final (ok [ ("served", J.Int (locked (fun () -> !served))) ])
    | "drain" ->
        Exec.Serve.Drain
          (ok
             [
               ("draining", J.Bool true);
               ("served", J.Int (locked (fun () -> !served)));
             ])
    | "health" ->
        let a = Resilience.Admission.stats adm in
        Exec.Serve.Reply
          (ok
             ([
               ("accepting", J.Bool (locked (fun () -> !accepting)));
               ("in_flight", J.Int a.Resilience.Admission.in_flight);
               ("queued", J.Int a.Resilience.Admission.queued);
               ( "shed",
                 J.Int
                   (a.Resilience.Admission.shed_capacity
                   + a.Resilience.Admission.shed_per_client) );
               ("timed_out", J.Int (locked (fun () -> !timed_out)));
               ("served", J.Int (locked (fun () -> !served)));
               ("reloads", J.Int (locked (fun () -> !reloads)));
               ("reload_rejected", J.Int (locked (fun () -> !reload_rejected)));
               ("restarts", J.Int cfg.restarts);
             ]
             @ trust_health_fields ()))
    | "stats" ->
        let mm = Exec.Memo.stats () in
        let p = Exec.Pool.stats pool in
        let a = Resilience.Admission.stats adm in
        let caps = Resilience.Admission.config adm in
        Exec.Serve.Reply
          (ok
             ([
               ("served", J.Int (locked (fun () -> !served)));
               ("uptime_s", J.Float (Unix.gettimeofday () -. t0));
               ( "memo",
                 J.Obj
                   [
                     ("hits", J.Int mm.Exec.Memo.hits);
                     ("misses", J.Int mm.Exec.Memo.misses);
                     ("entries", J.Int mm.Exec.Memo.entries);
                     ("evictions", J.Int mm.Exec.Memo.evictions);
                     ("hit_rate", J.Float (Exec.Memo.hit_rate mm));
                   ] );
               ( "pool",
                 J.Obj
                   [
                     ("domains", J.Int p.Exec.Pool.domains);
                     ("jobs_completed", J.Int p.Exec.Pool.jobs_completed);
                     ("restarts", J.Int p.Exec.Pool.restarts);
                   ] );
               ( "admission",
                 J.Obj
                   [
                     ("admitted", J.Int a.Resilience.Admission.admitted);
                     ("released", J.Int a.Resilience.Admission.released);
                     ( "shed_capacity",
                       J.Int a.Resilience.Admission.shed_capacity );
                     ( "shed_per_client",
                       J.Int a.Resilience.Admission.shed_per_client );
                     ("in_flight", J.Int a.Resilience.Admission.in_flight);
                     ("queued", J.Int a.Resilience.Admission.queued);
                     ( "peak_in_flight",
                       J.Int a.Resilience.Admission.peak_in_flight );
                     ("peak_queued", J.Int a.Resilience.Admission.peak_queued);
                     ( "max_in_flight",
                       J.Int caps.Resilience.Admission.max_in_flight );
                     ("max_queue", J.Int caps.Resilience.Admission.max_queue);
                     ( "max_per_client",
                       J.Int caps.Resilience.Admission.max_per_client );
                   ] );
               ("timed_out", J.Int (locked (fun () -> !timed_out)));
               ("reloads", J.Int (locked (fun () -> !reloads)));
               ("reload_rejected", J.Int (locked (fun () -> !reload_rejected)));
               ("restarts", J.Int cfg.restarts);
               ("crashes", J.Int (Resilience.Guard.total ()));
             ]
             @ trust_stats_fields ()))
    | "crash" when cfg.debug_jobs ->
        (* Ack first, then die from a detached thread: the supervisor
           smoke needs the reply flushed before the process vanishes. *)
        ignore
          (Thread.create
             (fun () ->
               Thread.delay 0.05;
               exit 70)
             ()
            : Thread.t);
        Exec.Serve.Reply (ok [ ("crashing", J.Bool true) ])
    | "parse" | "translate" | "synth" | "repair" -> admitted_work ~client job req
    | "sleep" when cfg.debug_jobs -> admitted_work ~client job req
    | "" -> Exec.Serve.Reply (fail "missing \"job\" field")
    | other -> Exec.Serve.Reply (fail (Printf.sprintf "unknown job %S" other))
  in
  let drain_reject _req =
    J.Obj
      [
        ("ok", J.Bool false);
        ("error", J.String "server draining");
        ("draining", J.Bool true);
        ( "retry_after_ms",
          J.Int
            (Resilience.Admission.config adm).Resilience.Admission.retry_after_ms
        );
      ]
  in
  let was_drain =
    Exec.Serve.serve ~socket_path ~handle ~io_timeout_ms:cfg.io_timeout_ms
      ~drain_grace_ms:cfg.drain_grace_ms ~drain_reject
      ~handle_signals:cfg.handle_signals
      ~on_drain:(fun () ->
        locked (fun () ->
            accepting := false;
            drained := true))
      ~on_ready:(fun () -> on_ready ~domains:(Exec.Pool.size pool))
      ~on_reload:reload_admission ()
  in
  Exec.Pool.shutdown pool;
  (* Every ledger line is already fsync'd; the close just guarantees a
     drained/shut-down daemon leaves no open handle. *)
  Option.iter Resilience.Trust.close_ledger ledger;
  (match cfg.triage with
  | Some path ->
      Resilience.Triage.record ~ts:(Unix.gettimeofday ()) ~path
        ~seed:cfg.restarts ()
  | None -> ());
  let a = Resilience.Admission.stats adm in
  {
    served = locked (fun () -> !served);
    shed =
      a.Resilience.Admission.shed_capacity
      + a.Resilience.Admission.shed_per_client;
    timed_out = locked (fun () -> !timed_out);
    drained = was_drain || locked (fun () -> !drained);
  }
