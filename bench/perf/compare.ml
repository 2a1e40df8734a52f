(* [perf.exe --compare BASE NEW]: judge a change against its parent.

   BASE and NEW each hold the result lines [--out] appended, several runs
   per workload. For every (workload, end-to-end metric) the medians are
   compared against the metric's bound from BENCHMARK.json, and the row
   reads:
   - unresolved: the run-to-run spread (inter-quartile distance over the
     median, on either side) is wider than the bound, unless every NEW run
     reads better than every BASE run, which is improved;
   - regressed: NEW's median is worse than BASE's by more than the bound;
   - improved: NEW's median is better by more than the bound;
   - unchanged otherwise.
   The exit code is 1 on any regression, on any increase of the share of
   units that failed (error_share), and on any NEW run that was not
   correct. *)

module J = Netcore.Json

type bound = { name : string; lower_is_better : bool; bound : float }

let load_bounds path =
  let j = J.of_string_exn (Stat.read_file path) in
  List.map
    (fun m ->
      {
        name = J.str_exn (J.member_exn "name" m);
        lower_is_better = J.str_exn (J.member_exn "better" m) = "lower";
        bound = Option.get (J.to_float (J.member_exn "bound" m));
      })
    (J.list_exn (J.member_exn "end_to_end" j))

type run = { workload : string; correct : bool; attempted : int; failed : int; result : J.t }

(* Untraced result lines of a file, in order. *)
let load_runs path =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        let j = J.of_string_exn line in
        let r = J.member_exn "result" j in
        if J.int_exn (J.member_exn "trace" j) <> 0 then None
        else
          Some
            {
              workload = J.str_exn (J.member_exn "workload" j);
              correct = J.member "correct" r = Some (J.Bool true);
              attempted = J.int_exn (J.member_exn "attempted" r);
              failed = J.int_exn (J.member_exn "failed" r);
              result = r;
            })
    (String.split_on_char '\n' (Stat.read_file path))

let value name r =
  Option.bind
    (Option.bind (J.member "metrics" r.result) (J.member name))
    (fun m -> Option.bind (J.member "value" m) J.to_float)

let error_share runs =
  let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
  float_of_int (sum (fun r -> r.failed)) /. float_of_int (max 1 (sum (fun r -> r.attempted)))

let verdict b base news =
  let mb = Stat.median base and mn = Stat.median news in
  let better x y = if b.lower_is_better then x < y else x > y in
  let worse_by =
    (if b.lower_is_better then mn -. mb else mb -. mn) /. Float.abs mb
  in
  let dominates =
    Array.for_all (fun n -> Array.for_all (fun o -> better n o) base) news
  in
  let spread = Float.max (Stat.spread base) (Stat.spread news) in
  let v =
    if spread > b.bound then if dominates then "improved" else "unresolved"
    else if worse_by > b.bound then "regressed"
    else if -.worse_by > b.bound then "improved"
    else "unchanged"
  in
  (mb, mn, worse_by, spread, v)

let run ~benchmark base_path new_path =
  let bounds = load_bounds benchmark in
  let base = load_runs base_path and news = load_runs new_path in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (base @ news))
  in
  let bad = ref false in
  Printf.printf "%-11s %-15s %12s %12s %8s %7s %6s  %s\n" "workload" "metric" "base" "new"
    "worse" "spread" "bound" "verdict";
  List.iter
    (fun w ->
      let of_w rs = List.filter (fun r -> r.workload = w) rs in
      let b_runs = of_w base and n_runs = of_w news in
      if b_runs = [] || n_runs = [] then
        Printf.printf "%-11s (missing on one side: %d base, %d new runs)\n" w
          (List.length b_runs) (List.length n_runs)
      else begin
        List.iter
          (fun b ->
            let values rs = Array.of_list (List.filter_map (value b.name) rs) in
            let bv = values b_runs and nv = values n_runs in
            if Array.length bv = 0 || Array.length nv = 0 then
              Printf.printf "%-11s %-15s (not reported)\n" w b.name
            else begin
              let mb, mn, worse_by, spread, v = verdict b bv nv in
              if v = "regressed" then bad := true;
              Printf.printf "%-11s %-15s %12.6g %12.6g %+7.1f%% %6.1f%% %5.0f%%  %s\n" w b.name
                mb mn (100. *. worse_by) (100. *. spread) (100. *. b.bound) v
            end)
          bounds;
        let eb = error_share b_runs and en = error_share n_runs in
        let errors_up = en > eb in
        let incorrect = List.exists (fun r -> not r.correct) n_runs in
        if errors_up || incorrect then bad := true;
        Printf.printf "%-11s %-15s %12.6g %12.6g %8s %7s %6s  %s\n" w "error_share" eb en "" ""
          "0"
          (if errors_up then "regressed"
           else if incorrect then "incorrect"
           else "unchanged")
      end)
    workloads;
  if !bad then 1 else 0
