(* The four workloads: what one unit is, how it runs (in process or over
   the daemon's socket), and how its output is checked. *)

module D = Cosynth.Driver
module J = Netcore.Json

type workload = Translate | No_transit | Hardened | Serve

let workloads =
  [ ("translate", Translate); ("no-transit", No_transit); ("hardened", Hardened);
    ("serve", Serve) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* One VPP loop, or one parse job (serve only). *)
type loop =
  | Translation of { seed : int; cisco : string }
  | Synthesis of { seed : int; routers : int; final_check : D.final_check }
  | Repair of { seed : int; routers : int }
  | Parse of { text : string }

let kind_name = function
  | Translation _ -> "translate"
  | Synthesis _ -> "synth"
  | Repair _ -> "repair"
  | Parse _ -> "parse"

(* C1's "all faults 0.08" schedule; the driver salts it with the run seed,
   so every loop sees its own fault timeline. *)
let chaos =
  Resilience.Runtime.config
    ~chaos:
      (Resilience.Chaos.make ~crash_rate:0.08 ~timeout_rate:0.08 ~flake_rate:0.08
         ~truncate_rate:0.08 ~seed:99 ())
    ()

let edge_ir = lazy (fst (Cisco.Parser.parse Cisco.Samples.edge_router))

(* A serve parse job's Cisco draft. Within each block of 16 requests the
   four parse slots use two drafts, each twice on the same connection, so
   the daemon's memo sees exactly one miss and one hit per draft. *)
let parse_draft ~seed k =
  let d = (k / 16 * 2) + if k mod 8 = 2 then 0 else 1 in
  Llmsim.Chat.draft
    (Llmsim.Chat.start ~seed:(seed + d) Llmsim.Fault.Cisco_cfg
       ~correct:(Lazy.force edge_ir))

(* Peak RSS is read once this many units have run (about half a default
   run here). The parse memo keeps every distinct draft up to its entry
   cap, so a high-water mark read at the end of a timed run would grow
   with throughput. *)
let rss_units = function
  | Translate -> 500
  | No_transit -> 250
  | Hardened -> 800
  | Serve -> 1000

(* Request k's job: 3/8 translate, 2/8 synth, 1/8 repair, 2/8 parse,
   interleaved so each of the two connections gets a mix. *)
let serve_pattern = "TSPTRTSP"

(* Unit [i] of a workload run at [seed]. *)
let unit_of w ~seed i =
  let s = seed + i in
  match w with
  | Translate ->
      Translation
        {
          seed = s;
          cisco =
            (if i mod 2 = 0 then Cisco.Samples.border_router
             else Cisco.Samples.edge_router);
        }
  | No_transit -> Synthesis { seed = s; routers = 15; final_check = D.Both }
  | Hardened ->
      if s mod 2 = 0 then Translation { seed = s; cisco = Cisco.Samples.border_router }
      else Synthesis { seed = s; routers = 7; final_check = D.Simulate }
  | Serve -> (
      match serve_pattern.[i mod 8] with
      | 'T' -> Translation { seed = s; cisco = Cisco.Samples.border_router }
      | 'S' -> Synthesis { seed = s; routers = 7; final_check = D.Simulate }
      | 'R' -> Repair { seed = s; routers = 5 }
      | _ -> Parse { text = parse_draft ~seed i })

(* What a unit produced, reduced to what the benchmark checks and reports. *)
type outcome = {
  fingerprint : string;
      (** kind, auto, human, rounds, converged, verdict — or, for a parse
          job, kind, errors, diagnostics. *)
  verdict : bool option;  (** [None] for parse jobs, which are not loops. *)
  leverage : float;  (** auto/human; NaN for parse jobs. *)
  transcript : D.transcript option;  (** In-process loops only. *)
}

(* A loop's verdict counts only when it converged, in process as on serve,
   so the same loop fingerprints the same either way. *)
let loop_outcome kind ~auto ~human ~rounds ~converged ~verdict transcript =
  let verdict = converged && verdict in
  {
    fingerprint =
      Printf.sprintf "%s\t%d\t%d\t%d\t%b\t%b" kind auto human rounds converged verdict;
    verdict = Some verdict;
    leverage =
      (if human = 0 then if auto > 0 then Float.infinity else 0.
       else float_of_int auto /. float_of_int human);
    transcript;
  }

let parse_outcome ~errors ~diags =
  {
    fingerprint = Printf.sprintf "parse\t%d\t%d" errors diags;
    verdict = None;
    leverage = Float.nan;
    transcript = None;
  }

let of_transcript kind (t : D.transcript) ~verdict =
  loop_outcome kind ~auto:t.D.auto_prompts ~human:t.D.human_prompts ~rounds:t.D.rounds
    ~converged:t.D.converged ~verdict (Some t)

(* {2 In process} *)

let first_error diags = List.find_opt Netcore.Diag.is_error diags

(* Run one loop through [Cosynth.Driver]'s public entry point. The
   returned thunk re-checks the output through public functions outside
   [Driver]'s verdict path; the caller runs it outside the timed
   region. *)
let run_loop ~hardened loop : outcome * (unit -> string option) =
  let resilience = if hardened then Some chaos else None in
  let trust = if hardened then Some Resilience.Trust.default_config else None in
  match loop with
  | Translation { seed; cisco } ->
      let r = D.run_translation ~seed ?resilience ?trust ~cisco_text:cisco () in
      let recheck () =
        if not r.D.verified then None
        else
          let ir, diags = Batfish.Parse_check.check Batfish.Parse_check.Junos r.D.final_text in
          let original = fst (Cisco.Parser.parse cisco) in
          if first_error diags <> None then Some "verified translation does not parse clean"
          else if Campion.Differ.compare ~original ~translation:ir <> [] then
            Some "verified translation differs from the original under Campion"
          else None
      in
      (of_transcript "translate" r.D.transcript ~verdict:r.D.verified, recheck)
  | Synthesis { seed; routers; final_check } ->
      let r = D.run_no_transit ~seed ~final_check ?resilience ?trust ~routers () in
      let recheck () =
        if not r.D.global_ok then None
        else
          match
            Cosynth.Modularizer.transit_violations (Netcore.Star.make ~routers) r.D.configs
          with
          | [] -> None
          | v :: _ -> Some ("global_ok network has a transit path: " ^ v)
      in
      (of_transcript "synth" r.D.transcript ~verdict:r.D.global_ok, recheck)
  | Repair { seed; routers } ->
      let r = D.run_incremental ~seed ?resilience ?trust ~routers () in
      ( of_transcript "repair" r.D.inc_transcript
          ~verdict:(r.D.specs_hold && r.D.global_ok),
        fun () -> None )
  | Parse { text } ->
      let _, diags = Exec.Memo.check Batfish.Parse_check.Cisco_ios text in
      ( parse_outcome
          ~errors:(List.length (List.filter Netcore.Diag.is_error diags))
          ~diags:(List.length diags),
        fun () -> None )

(* The hardened workload runs each seed as a one-seed journaled sweep, so
   every unit also pays the journal's fsync'd append. *)
type journal = (outcome * (unit -> string option)) Exec.Sweep.journal

let open_journal path : journal =
  Exec.Sweep.journal ~path
    ~encode:(fun (o, _) -> J.String o.fingerprint)
    ~decode:(fun _ -> None)
    ()

let run_unit ?journal loop =
  match journal with
  | None -> run_loop ~hardened:false loop
  | Some journal -> (
      let seed =
        match loop with
        | Translation { seed; _ } | Synthesis { seed; _ } | Repair { seed; _ } -> seed
        | Parse _ -> invalid_arg "run_unit: parse jobs are not sweep seeds"
      in
      match
        Exec.Sweep.run_seeds ~journal ~seeds:[ seed ] (fun _ ->
            run_loop ~hardened:true loop)
      with
      | [ r ] -> r
      | _ -> failwith "run_seeds returned other than one result")

(* {2 Over the daemon's socket} *)

let request_of = function
  | Translation { seed; _ } ->
      (* Serve translations are all of the border router, the job's default. *)
      J.Obj [ ("job", J.String "translate"); ("seed", J.Int seed) ]
  | Synthesis { seed; routers; _ } ->
      J.Obj [ ("job", J.String "synth"); ("seed", J.Int seed); ("routers", J.Int routers) ]
  | Repair { seed; routers } ->
      J.Obj
        [ ("job", J.String "repair"); ("seed", J.Int seed); ("routers", J.Int routers) ]
  | Parse { text } ->
      J.Obj
        [ ("job", J.String "parse"); ("dialect", J.String "cisco"); ("text", J.String text) ]

(* A reply must be an ok frame carrying the fields its job promises. *)
let outcome_of_reply loop reply =
  let int k = Option.bind (J.member k reply) J.to_int in
  let bool k = Option.bind (J.member k reply) J.to_bool in
  if bool "ok" <> Some true then
    Error
      (Printf.sprintf "%s reply not ok: %s" (kind_name loop)
         (Option.value ~default:"(no error field)"
            (Option.bind (J.member "error" reply) J.to_str)))
  else
    let loop_fields verdict =
      match (int "auto", int "human", int "rounds", bool "converged", verdict) with
      | Some auto, Some human, Some rounds, Some converged, Some v ->
          Ok
            (loop_outcome (kind_name loop) ~auto ~human ~rounds ~converged ~verdict:v None)
      | _ -> Error (kind_name loop ^ " reply is missing loop fields")
    in
    match loop with
    | Translation _ -> loop_fields (bool "verified")
    | Synthesis _ -> loop_fields (bool "global_ok")
    | Repair _ ->
        loop_fields
          (match (bool "specs_hold", bool "global_ok") with
          | Some a, Some b -> Some (a && b)
          | _ -> None)
    | Parse _ -> (
        match (int "errors", Option.bind (J.member "diags" reply) J.to_list) with
        | Some errors, Some diags -> Ok (parse_outcome ~errors ~diags:(List.length diags))
        | _ -> Error "parse reply is missing errors/diags")

type daemon = {
  pid : int;
  socket : string;
  out : in_channel;  (** The daemon's stdout (its listening and exit lines). *)
}

let control socket job =
  Exec.Serve.with_connection ~socket_path:socket (fun fd ->
      Exec.Serve.request fd (J.Obj [ ("job", J.String job) ]))

(* Spawn [cosynth serve] with its default caps and wait for it to answer a
   ping; the second component is the time that took. *)
let spawn_daemon ~cosynth ~socket =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Stat.now_ns () in
  let pid =
    Unix.create_process cosynth [| cosynth; "serve"; "--socket"; socket |] Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let d = { pid; socket; out = Unix.in_channel_of_descr r } in
  match
    let line = input_line d.out in
    if not (String.starts_with ~prefix:"cosynth serve: listening" line) then
      failwith ("unexpected daemon banner: " ^ line);
    if J.member "pong" (control socket "ping") <> Some (J.Bool true) then
      failwith "daemon did not answer ping"
  with
  | () -> (d, Stat.seconds_since t0)
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in_noerr d.out;
      raise e

(* Shut the daemon down and reap it; kill it if it will not go. *)
let stop_daemon d =
  (try ignore (control d.socket "shutdown") with _ -> (try Unix.kill d.pid Sys.sigkill with _ -> ()));
  (try ignore (In_channel.input_all d.out) with _ -> ());
  close_in_noerr d.out;
  ignore (Unix.waitpid [] d.pid)
