(* The repository benchmark. See README.md in this directory.

   perf.exe --workload W --seed S --seconds N --trace 0|1   one run
   perf.exe --compare BASE NEW                               judge a change
   perf.exe --smoke                                          the test rule *)

module J = Netcore.Json

let usage =
  "perf.exe --workload translate|no-transit|hardened|serve [--seed S] [--seconds N] \
   [--trace 0|1] [--units N] [--out FILE] [--fingerprints FILE]\n\
   perf.exe --compare BASE.jsonl NEW.jsonl\n\
   perf.exe --smoke"

let workload = ref ""
let seed = ref 1000
let seconds = ref 20.
let trace = ref 0
let max_units = ref max_int
let out = ref ""
let fingerprints = ref ""
let expected_dir = ref "bench/perf/expected"
let cosynth = ref "_build/default/bin/cosynth_cli.exe"
let compare_files = ref []
let smoke = ref false
let setup_probe = ref false

let specs =
  [
    ("--workload", Arg.Set_string workload, "W  translate, no-transit, hardened or serve");
    ("--seed", Arg.Set_int seed, "S  workload seed: unit i runs seed S+i (default 1000)");
    ("--seconds", Arg.Set_float seconds, "N  unit time to measure (default 20)");
    ("--trace", Arg.Set_int trace, "0|1  1: the traced run, per-layer metrics");
    ("--units", Arg.Set_int max_units, "N  stop after N units (per phase when tracing)");
    ("--out", Arg.Set_string out, "FILE  also append the result line to FILE");
    ("--fingerprints", Arg.Set_string fingerprints, "FILE  write each unit's fingerprint");
    ("--expected", Arg.Set_string expected_dir, "DIR  expected fingerprints");
    ("--cosynth", Arg.Set_string cosynth, "EXE  the cosynth binary serve spawns");
    ( "--compare",
      Arg.Tuple
        [ Arg.String (fun s -> compare_files := [ s ]);
          Arg.String (fun s -> compare_files := !compare_files @ [ s ]) ],
      "BASE NEW  compare two files of result lines" );
    ("--smoke", Arg.Set smoke, "  every workload at 4 units, twice, plus a traced unit");
    ("--setup-probe", Arg.Set setup_probe, "  (internal) set up, print ready, exit");
  ]

let finite x = if Float.is_finite x then x else 0.

let result_json (tally : Tally.t) metrics =
  J.Obj
    [
      ("correct", J.Bool (tally.Tally.failed = 0));
      ("attempted", J.Int tally.Tally.attempted);
      ("failed", J.Int tally.Tally.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, v, unit) ->
               (name, J.Obj [ ("value", J.Float (finite v)); ("unit", J.String unit) ]))
             metrics) );
    ]

(* Timings over the quieter half of the run's windows (see {!Stat}):
   throughput, the kept units' latencies, CPU seconds per kept unit, and
   which windows were kept. *)
let quiet w (t : Runner.totals) =
  let module R = Runner in
  let n_windows =
    Array.fold_left (fun m u -> max m (Stat.window_of u.R.start_s + 1)) 0 t.R.units
  in
  let count = Array.make n_windows 0 and lat = Array.make n_windows 0.
  and busy = Array.make n_windows 0. and words = Array.make n_windows 0.
  and unit_cpu = Array.make n_windows 0. in
  Array.iter
    (fun u ->
      let i = Stat.window_of u.R.start_s in
      count.(i) <- count.(i) + 1;
      lat.(i) <- lat.(i) +. u.R.latency_s;
      busy.(i) <- busy.(i) +. u.R.busy_s;
      words.(i) <- words.(i) +. u.R.words;
      unit_cpu.(i) <- unit_cpu.(i) +. u.R.cpu_s)
    t.R.units;
  (* Serve runs two clients, and its CPU time is the daemon's, per window. *)
  let serve = w = Work.Serve in
  let cpu i =
    if not serve then unit_cpu.(i)
    else if i < Array.length t.R.window_cpu_s then t.R.window_cpu_s.(i)
    else 0.
  in
  let keep =
    Stat.quieter_half
      (Array.init n_windows (fun i ->
           if count.(i) = 0 then None
           else if serve then Some (lat.(i) /. float_of_int count.(i))
           else Some (lat.(i) /. words.(i))))
  in
  let sum f =
    List.fold_left (fun a i -> if keep.(i) then a +. f i else a) 0. (List.init n_windows Fun.id)
  in
  let kept = sum (fun i -> float_of_int count.(i)) in
  let latencies =
    Array.of_list
      (List.filter_map
         (fun u -> if keep.(Stat.window_of u.R.start_s) then Some u.R.latency_s else None)
         (Array.to_list t.R.units))
  in
  let clients = if serve then 2. else 1. in
  (clients *. kept /. sum (fun i -> busy.(i)), latencies, sum cpu /. kept, keep)

(* The untraced run: units for [seconds]. In process, a set-up probe runs
   as each window begins, and those of kept windows count. Serve probes
   before the load: a spawn under the load would time the load. *)
let measure w (tally : Tally.t) =
  let window_setups = ref [] and setups = ref [] in
  let totals =
    match w with
    | Work.Serve ->
        let dir = Runner.fresh_dir "serve" in
        Fun.protect
          ~finally:(fun () -> Runner.remove_dir dir)
          (fun () ->
            let spawn name =
              Work.spawn_daemon ~cosynth:!cosynth ~socket:(Filename.concat dir name)
            in
            for i = 1 to 9 do
              let d, dt = spawn "probe.sock" in
              Work.stop_daemon d;
              setups := dt :: !setups;
              if i < 9 then Thread.delay 0.2
            done;
            let d, _ = spawn "s.sock" in
            Fun.protect
              ~finally:(fun () -> Work.stop_daemon d)
              (fun () ->
                Runner.serve_load d ~seed:!seed ~first:0 ~seconds:!seconds
                  ~max_units:!max_units tally))
    | _ ->
        let dir = Runner.fresh_dir "run" in
        Fun.protect
          ~finally:(fun () -> Runner.remove_dir dir)
          (fun () ->
            let journal =
              if w = Work.Hardened then
                Some (Work.open_journal (Filename.concat dir "journal.jsonl"))
              else None
            in
            let probe i = window_setups := (i, Runner.probe_setup w ~seed:!seed) :: !window_setups in
            let t =
              Runner.in_process ?journal ~at_boundary:probe w ~seed:!seed ~first:0
                ~seconds:!seconds ~max_units:!max_units tally
            in
            Option.iter Exec.Sweep.journal_close journal;
            t)
  in
  let throughput, lat, cpu, keep = quiet w totals in
  List.iter
    (fun (i, s) -> if i < Array.length keep && keep.(i) then setups := s :: !setups)
    !window_setups;
  [
    ("throughput", throughput, "1/s");
    ("latency_p50_ms", Stat.median lat *. 1e3, "ms");
    ("latency_p95_ms", Stat.quantile lat 0.95 *. 1e3, "ms");
    ("cpu_ms", cpu *. 1e3, "ms");
    ( "alloc_mwords",
      totals.Runner.words /. float_of_int (Array.length totals.Runner.units) /. 1e6,
      "Mwords" );
    ("peak_rss_mb", totals.Runner.rss_mb, "MB");
    ("setup_s", Stat.median (Array.of_list !setups), "s");
    ("verified_share", Tally.verified_share tally, "share");
    ("leverage_mean", Stat.mean (Stat.Sample.to_array tally.Tally.lev), "ratio");
  ]

let run w =
  let name = Work.workload_name w in
  let expected =
    Tally.load_expected (Filename.concat !expected_dir (name ^ ".tsv")) ~seed:!seed
  in
  let tally = Tally.create ?expected ~record_fingerprints:(!fingerprints <> "") () in
  let metrics =
    if !trace = 0 then measure w tally
    else
      let m =
        match w with
        | Work.Serve ->
            Trace.serve ~cosynth:!cosynth ~seed:!seed ~seconds:!seconds
              ~max_units:!max_units tally
        | _ -> Trace.in_process w ~seed:!seed ~seconds:!seconds ~max_units:!max_units tally
      in
      Trace.write_spans
        (Filename.concat Runner.run_dir ("trace-" ^ name ^ ".json"))
        ~workload:name ~seed:!seed;
      m
  in
  List.iter prerr_endline (List.rev tally.Tally.problems);
  if !fingerprints <> "" then Tally.write_fingerprints tally ~seed:!seed !fingerprints;
  let result = result_json tally metrics in
  if !out <> "" then
    Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 !out (fun oc ->
        output_string oc
          (J.to_string
             (J.Obj
                [ ("workload", J.String name); ("seed", J.Int !seed);
                  ("trace", J.Int !trace); ("result", result) ]));
        output_char oc '\n');
  print_endline (J.to_string result);
  if tally.Tally.failed = 0 then 0 else 1

(* {2 The test rule} *)

(* Run this executable with [args]; its exit status and last stdout line. *)
let child args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let text = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last =
    List.fold_left (fun acc l -> if l = "" then acc else l) "" (String.split_on_char '\n' text)
  in
  (status, last)

(* Every workload at 4 units twice — outputs checked both times against the
   expected fingerprints, and the counts that must not depend on timing
   compared — plus one traced unit. *)
let run_smoke () =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let common w =
    [ "--workload"; w; "--seed"; "1000"; "--seconds"; "60"; "--expected"; !expected_dir;
      "--cosynth"; !cosynth ]
  in
  let result w args =
    match child (common w @ args) with
    | Unix.WEXITED 0, line -> (
        match J.of_string line with
        | Ok j when J.member "correct" j = Some (J.Bool true) -> Some j
        | _ ->
            fail "%s %s: bad result line %S" w (String.concat " " args) line;
            None)
    | _, line ->
        fail "%s %s: exited nonzero (%s)" w (String.concat " " args) line;
        None
  in
  let value name j =
    Option.bind (Option.bind (J.member "metrics" j) (J.member name)) (J.member "value")
  in
  List.iter
    (fun (w, kind) ->
      let plain () = result w [ "--units"; "4"; "--trace"; "0" ] in
      (match (plain (), plain ()) with
      | Some a, Some b ->
          let repeat =
            [ "verified_share"; "leverage_mean" ]
            @ if kind = Work.Serve then [] else [ "alloc_mwords" ]
          in
          List.iter
            (fun m ->
              if value m a <> value m b then fail "%s: %s did not repeat" w m)
            repeat;
          if J.member "attempted" a <> Some (J.Int 4) then fail "%s: attempted is not 4" w
      | _ -> ());
      ignore (result w [ "--units"; "1"; "--trace"; "1" ] : J.t option);
      Printf.printf "smoke %s: done\n%!" w)
    Work.workloads;
  List.iter prerr_endline (List.rev !failures);
  if !failures = [] then 0 else 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let workload () =
    match List.assoc_opt !workload Work.workloads with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  exit
    (match !compare_files with
    | [ base; news ] -> Compare.run ~benchmark:"BENCHMARK.json" base news
    | _ ->
        if !smoke then run_smoke ()
        else if !setup_probe then begin
          Runner.prepare (workload ()) ~seed:!seed;
          print_endline "ready";
          0
        end
        else run (workload ()))
