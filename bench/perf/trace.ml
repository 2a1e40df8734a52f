(* The traced run. It splits a run into phases:

   - A, untraced units: the reference for the tracing overhead;
   - B, the same units again from a cold memo, with the layers' public
     counters snapshotted around each one: exact calls per unit;
   - C, a replay that regenerates the units' inputs from the same seeds,
     walks each simulated LLM conversation, and times every layer's public
     function on each draft: cost per call.

   A layer's share of unit time is its calls per unit times its mean cost
   per call, over the mean traced unit time. On serve, A and B are socket
   loads (B asks the daemon for its [stats] after every request), the
   calls come from running the same jobs in process, and the shares are
   of the request latency a client sees. *)

module D = Cosynth.Driver
module J = Netcore.Json

(* Layers with a public function the replay times, named after modules. *)
let timed_layers =
  [ "campion.compare"; "juniper.parse"; "cisco.parse"; "topoverify.check";
    "batfish.route_policies"; "batfish.bgp_sim"; "core.lightyear"; "llmsim.chat";
    "core.humanizer"; "durable.store" ]

type layer = {
  us : float Stat.Sample.t;  (** Replay: microseconds per call. *)
  words : float Stat.Sample.t;  (** Replay: words allocated per call. *)
  mutable calls : float;  (** Counted: calls over all traced units. *)
  mutable paid : float;
      (** Counted: calls that did the layer's work — a memo hit costs a
          table lookup, not a parse, so parses count misses here. *)
}

let layers =
  List.map
    (fun n -> (n, { us = Stat.Sample.create (); words = Stat.Sample.create (); calls = 0.; paid = 0. }))
    timed_layers

let layer n = List.assoc n layers

(* {2 Spans} *)

type span = { id : int; name : string; start_ns : int64; end_ns : int64; parent : int }

let spans = ref []
let next_id = ref 0

let new_id () =
  incr next_id;
  !next_id

let add_span ~id ?(parent = -1) name start_ns end_ns =
  spans := { id; name; start_ns; end_ns; parent } :: !spans

(* Open a span now: its id, and the function that closes it. *)
let open_span ?parent name =
  let id = new_id () in
  let t0 = Stat.now_ns () in
  (id, fun () -> add_span ~id ?parent name t0 (Stat.now_ns ()))

let timed name ~parent f =
  let l = layer name in
  let a0 = Stat.allocated_words () in
  let t0 = Stat.now_ns () in
  let r = f () in
  let t1 = Stat.now_ns () in
  let a1 = Stat.allocated_words () in
  Stat.Sample.add l.us (Stat.span_s t0 t1 *. 1e6);
  Stat.Sample.add l.words (a1 -. a0);
  add_span ~id:(new_id ()) ~parent name t0 t1;
  r

let write_spans path ~workload ~seed =
  let t_min = List.fold_left (fun m s -> min m s.start_ns) Int64.max_int !spans in
  let us t = J.Float (Stat.span_s t_min t *. 1e6) in
  let span s =
    J.Obj
      ([ ("id", J.Int s.id); ("name", J.String s.name); ("start_us", us s.start_ns);
         ("end_us", us s.end_ns) ]
      @ if s.parent < 0 then [] else [ ("parent", J.Int s.parent) ])
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj
              [ ("workload", J.String workload); ("seed", J.Int seed);
                ("spans", J.List (List.rev_map span !spans)) ])))

(* {2 Counted calls} *)

type counts = {
  mutable units : int;
  mutable attempts : int;
  mutable retries : int;
  mutable degraded : int;
  mutable cross_checks : int;
  mutable disagreements : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let counts =
  { units = 0; attempts = 0; retries = 0; degraded = 0; cross_checks = 0;
    disagreements = 0; hits = 0; misses = 0; evictions = 0 }

type snap = {
  stats : (Resilience.Verifier.kind * Resilience.Stats.counters) list;
  trust : Resilience.Trust.counters;
  memo : Exec.Memo.stats;
}

let snap () =
  {
    stats = Resilience.Stats.snapshot ();
    trust = Resilience.Trust.totals (Resilience.Trust.snapshot ());
    memo = Exec.Memo.stats ();
  }

let count ?paid name n =
  let l = layer name in
  l.calls <- l.calls +. float_of_int n;
  l.paid <- l.paid +. float_of_int (Option.value paid ~default:n)

(* Prompts the humanizer rendered from a finding, by transcript note. *)
let rendered_notes = [ "syntax"; "campion"; "topology"; "semantic"; "global"; "crash"; "oscillation" ]

let account (loop : Work.loop) (o : Work.outcome) s0 s1 =
  let module S = Resilience.Stats in
  let d = S.diff s0.stats s1.stats in
  let attempts k = (List.assoc k d).S.attempts in
  let hits = s1.memo.Exec.Memo.hits - s0.memo.Exec.Memo.hits in
  let misses = s1.memo.Exec.Memo.misses - s0.memo.Exec.Memo.misses in
  count ~paid:misses
    (match loop with Work.Translation _ -> "juniper.parse" | _ -> "cisco.parse")
    (hits + misses);
  let module V = Resilience.Verifier in
  count "campion.compare" (attempts V.Campion);
  count "topoverify.check" (attempts V.Topology);
  count "batfish.route_policies" (attempts V.Route_policies);
  count "batfish.bgp_sim" (attempts V.Bgp_sim);
  (match loop with
  | Work.Synthesis { final_check = D.Prove | D.Both; _ } ->
      count "core.lightyear" (attempts V.Bgp_sim)
  | _ -> ());
  (match o.Work.transcript with
  | Some t ->
      count "llmsim.chat" (t.D.rounds + t.D.auto_prompts + t.D.human_prompts);
      count "core.humanizer"
        (List.length
           (List.filter (fun (e : D.event) -> List.mem e.D.note rendered_notes) t.D.events))
  | None -> ());
  let total = List.fold_left (fun acc (_, c) -> S.add acc c) S.zero d in
  counts.units <- counts.units + 1;
  counts.attempts <- counts.attempts + total.S.attempts;
  counts.retries <- counts.retries + total.S.retries;
  counts.degraded <- counts.degraded + total.S.degraded;
  counts.cross_checks <-
    counts.cross_checks + s1.trust.Resilience.Trust.cross_checks
    - s0.trust.Resilience.Trust.cross_checks;
  counts.disagreements <-
    counts.disagreements + s1.trust.Resilience.Trust.disagreements
    - s0.trust.Resilience.Trust.disagreements;
  counts.hits <- counts.hits + hits;
  counts.misses <- counts.misses + misses;
  counts.evictions <-
    counts.evictions + s1.memo.Exec.Memo.evictions - s0.memo.Exec.Memo.evictions

(* Wrap for {!Runner.in_process}: snapshot around the unit, one span. *)
let counted loop f =
  let s0 = snap () in
  let _, close = open_span ("unit:" ^ Work.kind_name loop) in
  let r = f () in
  close ();
  account loop (fst r) s0 (snap ());
  r

(* {2 Replay} *)

(* A bound on one conversation's steps, so every walk ends. *)
let max_steps = 100

(* Walk a conversation the way the loop does: render the draft and check
   it; the first finding's humanized prompt goes back automated, or to a
   human once that prompt text has been sent [stall] times. Checking the
   same drafts as the loop keeps each layer's mix of inputs (the 15-router
   hub's big config against the spokes' small ones) the loop's mix.
   [check] returns the prompt for the first finding, if any, and the
   value to return when the walk ends. *)
let walk ~parent ~stall chat check =
  let stalls = Hashtbl.create 8 in
  let respond text refs strength =
    timed "llmsim.chat" ~parent (fun () ->
        Llmsim.Chat.respond chat { Llmsim.Chat.text; refs; strength })
  in
  let rec go n =
    let draft = timed "llmsim.chat" ~parent (fun () -> Llmsim.Chat.draft chat) in
    match check draft with
    | Some { Cosynth.Humanizer.text; refs }, result when n < max_steps ->
        let tries = Option.value ~default:0 (Hashtbl.find_opt stalls text) in
        if tries < stall then begin
          respond text refs Llmsim.Chat.Auto;
          Hashtbl.replace stalls text (tries + 1);
          go (n + 1)
        end
        else if refs <> [] then begin
          respond ("[human] " ^ text) refs Llmsim.Chat.Human;
          Hashtbl.remove stalls text;
          go (n + 1)
        end
        else result
    | _, result -> result
  in
  go 1

let humanize ~parent f = Some (timed "core.humanizer" ~parent f)

(* [Cosynth.Driver]'s default stall thresholds. *)
let translation_stall = 4
let synthesis_stall = 2

let replay_translation ~parent ~seed ~cisco =
  let original = fst (Cisco.Parser.parse cisco) in
  let chat =
    timed "llmsim.chat" ~parent (fun () ->
        Llmsim.Chat.start ~seed ~regression_rate:0.2 Llmsim.Fault.Junos_cfg
          ~correct:(Juniper.Translate.of_cisco_ir original))
  in
  walk ~parent ~stall:translation_stall chat (fun draft ->
      let ir, diags =
        timed "juniper.parse" ~parent (fun () ->
            Batfish.Parse_check.check Batfish.Parse_check.Junos draft)
      in
      match Work.first_error diags with
      | Some d -> (humanize ~parent (fun () -> Cosynth.Humanizer.of_diag d), ())
      | None -> (
          match
            timed "campion.compare" ~parent (fun () ->
                Campion.Differ.compare ~original ~translation:ir)
          with
          | f :: _ -> (humanize ~parent (fun () -> Cosynth.Humanizer.of_campion f), ())
          | [] -> (None, ())))

let replay_synthesis ~parent ~seed ~routers ~final_check =
  let star = Netcore.Star.make ~routers in
  let iips = Cosynth.Iip.ids Cosynth.Iip.defaults in
  let configs =
    List.mapi
      (fun idx (task : Cosynth.Modularizer.router_task) ->
        let router = task.Cosynth.Modularizer.router in
        let chat =
          timed "llmsim.chat" ~parent (fun () ->
              Llmsim.Chat.start ~seed:(seed + (idx * 7919)) ~iips Llmsim.Fault.Cisco_cfg
                ~correct:task.Cosynth.Modularizer.correct)
        in
        let ir =
          walk ~parent ~stall:synthesis_stall chat (fun draft ->
              let ir, diags =
                timed "cisco.parse" ~parent (fun () ->
                    Batfish.Parse_check.check Batfish.Parse_check.Cisco_ios draft)
              in
              match Work.first_error diags with
              | Some d -> (humanize ~parent (fun () -> Cosynth.Humanizer.of_diag d), ir)
              | None -> (
                  match
                    timed "topoverify.check" ~parent (fun () ->
                        Topoverify.Verifier.check star.Netcore.Star.topology ~router ir)
                  with
                  | f :: _ -> (humanize ~parent (fun () -> Cosynth.Humanizer.of_topology f), ir)
                  | [] -> (
                      let outcomes =
                        timed "batfish.route_policies" ~parent (fun () ->
                            Batfish.Search_route_policies.check_all ir
                              task.Cosynth.Modularizer.specs)
                      in
                      match
                        List.find_map
                          (function
                            | _, Batfish.Search_route_policies.Violated v -> Some v
                            | _ -> None)
                          outcomes
                      with
                      | Some v ->
                          (humanize ~parent (fun () -> Cosynth.Humanizer.of_violation v), ir)
                      | None -> (None, ir))))
        in
        (router, ir))
      (Cosynth.Modularizer.plan star)
  in
  ignore
    (timed "batfish.bgp_sim" ~parent (fun () ->
         Cosynth.Modularizer.no_transit_holds star configs)
      : bool * string list);
  if final_check <> D.Simulate then
    ignore
      (timed "core.lightyear" ~parent (fun () -> Cosynth.Lightyear.prove_no_transit star configs)
        : Cosynth.Lightyear.result)

let replay ?store loop =
  let parent, close = open_span ("replay:" ^ Work.kind_name loop) in
  (match loop with
  | Work.Translation { seed; cisco } -> replay_translation ~parent ~seed ~cisco
  | Work.Synthesis { seed; routers; final_check } ->
      replay_synthesis ~parent ~seed ~routers ~final_check
  | Work.Parse { text } ->
      ignore
        (timed "cisco.parse" ~parent (fun () ->
             Batfish.Parse_check.check Batfish.Parse_check.Cisco_ios text)
          : Policy.Config_ir.t * Netcore.Diag.t list)
  | Work.Repair _ -> ());
  (match (store, loop) with
  | Some s, (Work.Translation { seed; _ } | Work.Synthesis { seed; _ }) ->
      (* A record the size of the journal's: the seed and a fingerprint. *)
      let record =
        J.Obj
          [ ("seed", J.Int seed);
            ("summary", J.String "translate\t10\t2\t12\ttrue\ttrue") ]
      in
      if not (timed "durable.store" ~parent (fun () -> Durable.Store.append s record)) then
        failwith "replay append was not durable"
  | _ -> ());
  close ()

(* {2 The run} *)

let replay_phase ?store w ~seed ~seconds ~max_units =
  let t0 = Stat.now_ns () in
  let i = ref 0 in
  while Stat.seconds_since t0 < seconds && !i < max_units do
    replay ?store (Work.unit_of w ~seed !i);
    incr i
  done

let per n x = if n = 0 then 0. else x /. float_of_int n

(* Counters read around the run rather than per unit: the parse memo's
   (the daemon's, from its [stats] job, on serve) and the daemon's own. *)
type outside = {
  hit_rate : float;
  misses : float;  (** Per unit. *)
  evictions : float;
  ping_p50_us : float;
  ping_p95_us : float;
  shed : float;
  peak_in_flight : float;
  jobs_per_request : float;
}

let in_process_outside () =
  {
    hit_rate = float_of_int counts.hits /. float_of_int (max 1 (counts.hits + counts.misses));
    misses = per counts.units (float_of_int counts.misses);
    evictions = float_of_int counts.evictions;
    ping_p50_us = 0.;
    ping_p95_us = 0.;
    shed = 0.;
    peak_in_flight = 0.;
    jobs_per_request = 0.;
  }

(* Every per-layer metric, in BENCHMARK.json's order. [unit_us] is the
   mean unit time the shares divide. *)
let metrics ~unit_us ~ratio o =
  let n = counts.units in
  let timed =
    List.concat_map
      (fun name ->
        let l = layer name in
        let us = Stat.Sample.to_array l.us in
        [ (name ^ ".calls", per n l.calls, "calls/unit");
          (name ^ ".us_p50", Stat.median us, "us");
          (name ^ ".us_p95", Stat.quantile us 0.95, "us");
          (name ^ ".kwords", Stat.mean (Stat.Sample.to_array l.words) /. 1e3, "kwords");
          (name ^ ".share", per n l.paid *. Stat.mean us /. unit_us, "share") ])
      timed_layers
  in
  let attributed =
    List.fold_left
      (fun acc (name, v, _) ->
        if String.ends_with ~suffix:".share" name then acc +. v else acc)
      0. timed
  in
  let per_unit x = per n (float_of_int x) in
  timed
  @ [ ("exec.memo.hit_rate", o.hit_rate, "share");
      ("exec.memo.misses", o.misses, "1/unit");
      ("exec.memo.evictions", o.evictions, "count");
      ("resilience.runtime.attempts", per_unit counts.attempts, "1/unit");
      ( "resilience.runtime.retry_ratio",
        float_of_int counts.retries /. float_of_int (max 1 counts.attempts), "ratio" );
      ("resilience.runtime.degraded", per_unit counts.degraded, "1/unit");
      ("resilience.trust.cross_checks", per_unit counts.cross_checks, "1/unit");
      ("resilience.trust.disagreements", per_unit counts.disagreements, "1/unit");
      ("exec.serve.us_p50", o.ping_p50_us, "us");
      ("exec.serve.us_p95", o.ping_p95_us, "us");
      ("resilience.admission.shed", o.shed, "count");
      ("resilience.admission.peak_in_flight", o.peak_in_flight, "count");
      ("exec.pool.jobs_per_request", o.jobs_per_request, "1/unit");
      ("unattributed.share", 1. -. attributed, "share");
      ("trace.throughput_ratio", ratio, "ratio") ]

let throughput (t : Runner.totals) = float_of_int (Array.length t.Runner.units) /. t.Runner.wall_s

let in_process w ~seed ~seconds ~max_units tally =
  let q = seconds /. 4. in
  let dir = Runner.fresh_dir "trace" in
  Fun.protect
    ~finally:(fun () -> Runner.remove_dir dir)
    (fun () ->
      let path name = Filename.concat dir name in
      let phase ?wrap name =
        let journal =
          if w = Work.Hardened then Some (Work.open_journal (path name)) else None
        in
        let t = Runner.in_process ?journal ?wrap w ~seed ~first:0 ~seconds:q ~max_units tally in
        Option.iter Exec.Sweep.journal_close journal;
        t
      in
      let a = phase "a.jsonl" in
      Exec.Memo.reset ();
      let b = phase ~wrap:counted "b.jsonl" in
      let store =
        if w <> Work.Hardened then None
        else begin
          count "durable.store" (List.length (fst (Durable.Store.read (path "b.jsonl"))));
          Some (Durable.Store.open_ (path "replay.jsonl"))
        end
      in
      replay_phase ?store w ~seed ~seconds:(2. *. q) ~max_units;
      Option.iter Durable.Store.close store;
      metrics
        ~unit_us:(per (Array.length b.Runner.units) b.Runner.wall_s *. 1e6)
        ~ratio:(throughput b /. throughput a) (in_process_outside ()))

let serve ~cosynth ~seed ~seconds ~max_units tally =
  let q = seconds /. 4. in
  let dir = Runner.fresh_dir "trace" in
  Fun.protect
    ~finally:(fun () -> Runner.remove_dir dir)
    (fun () ->
      let d, _ = Work.spawn_daemon ~cosynth ~socket:(Filename.concat dir "s.sock") in
      let a, unit_us, b, outside =
        Fun.protect
          ~finally:(fun () -> Work.stop_daemon d)
          (fun () ->
            let stats () = Work.control d.Work.socket "stats" in
            let field path json =
              Option.value ~default:0.
                (Option.bind
                   (List.fold_left (fun j k -> Option.bind j (J.member k)) (Some json) path)
                   J.to_float)
            in
            let s0 = stats () in
            let a = Runner.serve_load d ~seed ~first:0 ~seconds:q ~max_units tally in
            let s1 = stats () in
            let unit_us =
              Stat.mean (Array.map (fun u -> u.Runner.latency_s) a.Runner.units) *. 1e6
            in
            let delta path = field path s1 -. field path s0 in
            let stats_req = J.Obj [ ("job", J.String "stats") ] in
            let b =
              Runner.serve_load d ~seed ~first:(Array.length a.Runner.units) ~seconds:q
                ~max_units tally
                ~after_each:(fun fd -> ignore (Exec.Serve.request fd stats_req : J.t))
            in
            let ping = Stat.Sample.create () in
            Exec.Serve.with_connection ~socket_path:d.Work.socket (fun fd ->
                for _ = 1 to 200 do
                  let t0 = Stat.now_ns () in
                  ignore (Exec.Serve.request fd (J.Obj [ ("job", J.String "ping") ]) : J.t);
                  let t1 = Stat.now_ns () in
                  add_span ~id:(new_id ()) "exec.serve" t0 t1;
                  Stat.Sample.add ping (Stat.span_s t0 t1 *. 1e6)
                done);
            let ping = Stat.Sample.to_array ping in
            let hits = delta [ "memo"; "hits" ] and misses = delta [ "memo"; "misses" ] in
            let n = Array.length a.Runner.units in
            ( a, unit_us, b,
              {
                hit_rate = hits /. Float.max 1. (hits +. misses);
                misses = per n misses;
                evictions = delta [ "memo"; "evictions" ];
                ping_p50_us = Stat.median ping;
                ping_p95_us = Stat.quantile ping 0.95;
                shed =
                  delta [ "admission"; "shed_capacity" ]
                  +. delta [ "admission"; "shed_per_client" ];
                peak_in_flight = field [ "admission"; "peak_in_flight" ] s1;
                jobs_per_request = per n (delta [ "pool"; "jobs_completed" ]);
              } ))
      in
      (* The daemon's per-layer calls, from the same jobs run in process
         (their outputs are checked like the replies were). *)
      Exec.Memo.reset ();
      ignore
        (Runner.in_process ~wrap:counted Work.Serve ~seed ~first:0 ~seconds:q ~max_units
           tally
          : Runner.totals);
      replay_phase Work.Serve ~seed ~seconds:q ~max_units;
      metrics ~unit_us ~ratio:(throughput b /. throughput a) outside)
