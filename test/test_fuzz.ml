(* Tests for the fuzzing subsystem (lib/fuzz): mutant determinism, the
   ddmin shrinker, the totality properties as a qcheck over random mutant
   streams, and the regression-corpus replay that tier-1 pins. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let string_t = Alcotest.string
let int_t = Alcotest.int

let cisco_corpus = Fuzz.Corpus.texts Fuzz.Corpus.Cisco
let junos_corpus = Fuzz.Corpus.texts Fuzz.Corpus.Junos

(* ------------------------------------------------------------------ *)
(* Mutator                                                             *)
(* ------------------------------------------------------------------ *)

let test_mutator_deterministic () =
  (* The mutant is a pure function of (seed, round, corpus): regenerating
     it — in another process, after a crash, on another machine — yields
     byte-identical input, which is what makes every escape replayable. *)
  List.iter
    (fun (seed, round) ->
      check string_t
        (Printf.sprintf "mutant (%d, %d) reproducible" seed round)
        (Fuzz.Mutator.mutant ~seed ~round ~corpus:cisco_corpus)
        (Fuzz.Mutator.mutant ~seed ~round ~corpus:cisco_corpus))
    [ (1, 0); (1, 39); (7, 12); (999, 3) ];
  (* Distinct rounds explore distinct inputs (not all, but most). *)
  let distinct =
    List.sort_uniq compare
      (List.init 50 (fun round ->
           Fuzz.Mutator.mutant ~seed:1 ~round ~corpus:cisco_corpus))
  in
  check bool_t "rounds diversify" true (List.length distinct > 25)

let test_mutator_bounded () =
  for round = 0 to 99 do
    let m = Fuzz.Mutator.mutant ~seed:3 ~round ~corpus:junos_corpus in
    if String.length m > Fuzz.Mutator.max_mutant_bytes then
      Alcotest.failf "round %d mutant is %dB (cap %dB)" round (String.length m)
        Fuzz.Mutator.max_mutant_bytes
  done

let test_weighted_deterministic_given_history () =
  (* Two campaigns that paid the same rewards draw identical mutants: the
     schedule changes which operators are picked, never the stream. *)
  let campaign () =
    let h = Fuzz.Mutator.history () in
    Fuzz.Mutator.reward h ~op:0 3;
    Fuzz.Mutator.reward h ~op:5 7;
    List.init 20 (fun round ->
        Fuzz.Mutator.weighted_mutant ~seed:4 ~round ~corpus:cisco_corpus ~history:h)
  in
  check bool_t "weighted campaign reproducible" true (campaign () = campaign ());
  (* With an all-zero history the weighted schedule is uniform over ops, so
     it reports 1–4 applied operator indices per mutant. *)
  let h = Fuzz.Mutator.history () in
  List.iter
    (fun round ->
      let _, ops =
        Fuzz.Mutator.weighted_mutant ~seed:4 ~round ~corpus:cisco_corpus ~history:h
      in
      let n = List.length ops in
      if n < 1 || n > 4 then Alcotest.failf "round %d applied %d ops" round n;
      List.iter
        (fun op ->
          if op < 0 || op >= Fuzz.Mutator.n_ops then
            Alcotest.failf "round %d reported op %d" round op)
        ops)
    [ 0; 1; 2; 3; 4 ]

let test_weighted_bias () =
  (* A heavily rewarded operator dominates the schedule. *)
  let h = Fuzz.Mutator.history () in
  Fuzz.Mutator.reward h ~op:1 1000;
  let hits = ref 0 and total = ref 0 in
  for round = 0 to 49 do
    let _, ops =
      Fuzz.Mutator.weighted_mutant ~seed:8 ~round ~corpus:cisco_corpus ~history:h
    in
    List.iter
      (fun op ->
        incr total;
        if op = 1 then incr hits)
      ops
  done;
  check bool_t
    (Printf.sprintf "rewarded op dominates (%d/%d draws)" !hits !total)
    true
    (!hits * 10 > !total * 9);
  check int_t "score readable" 1000 (Fuzz.Mutator.score h ~op:1)

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)
(* ------------------------------------------------------------------ *)

let test_shrink_minimal () =
  let input =
    "hostname router1\ninterface Loopback0\n ip address Z 10.0.0.1\n\
     router bgp 65000\n neighbor 1.2.3.4 remote-as 65001\n"
  in
  let still_failing s = String.contains s 'Z' in
  let m = Fuzz.Shrink.minimize ~still_failing input in
  (* Line pass isolates the poisoned line, char pass strips it to the
     single byte the predicate needs. *)
  check string_t "1-byte trigger" "Z" m

let test_shrink_result_still_fails () =
  let still_failing s =
    String.length s >= 3 && String.contains s '{' && String.contains s '}'
  in
  let input = String.concat "\n" (List.init 40 (fun i -> Printf.sprintf "line%d { x; }" i)) in
  let m = Fuzz.Shrink.minimize ~still_failing input in
  check bool_t "minimized input still fails" true (still_failing m);
  check bool_t "and shrank" true (String.length m < String.length input)

let test_shrink_passing_input_untouched () =
  let input = "nothing wrong here" in
  check string_t "non-failing input returned unchanged" input
    (Fuzz.Shrink.minimize ~still_failing:(fun _ -> false) input)

(* ------------------------------------------------------------------ *)
(* Totality as a qcheck property                                       *)
(* ------------------------------------------------------------------ *)

(* Any (seed, round) mutant of either corpus must satisfy every pipeline
   property — guarded parse, print/reparse/reprint fixpoint, differ, both
   sims. This is the F1 gate's core restated over a random sample of the
   mutant space instead of a fixed sweep. *)
let prop_pipeline_total =
  QCheck2.Test.make ~name:"fuzz: every pipeline stage total on mutants" ~count:40
    ~print:(fun (seed, round, junos) ->
      Printf.sprintf "seed=%d round=%d dialect=%s" seed round
        (if junos then "junos" else "cisco"))
    QCheck2.Gen.(tup3 (int_range 1 10_000) (int_range 0 200) bool)
    (fun (seed, round, junos) ->
      let dialect = if junos then Fuzz.Corpus.Junos else Fuzz.Corpus.Cisco in
      let corpus = Fuzz.Corpus.texts dialect in
      let m = Fuzz.Mutator.mutant ~seed ~round ~corpus in
      Fuzz.Props.check dialect m = [])

(* ------------------------------------------------------------------ *)
(* Regression corpus                                                   *)
(* ------------------------------------------------------------------ *)

let test_corpus_replay_clean () =
  (* dune runtest materializes test/corpus next to the executable; a bare
     `dune exec test/test_fuzz.exe` runs from the project root instead. *)
  let dir =
    List.find_opt
      (fun d -> Sys.file_exists d && Sys.is_directory d)
      [ "corpus"; "test/corpus"; "../test/corpus" ]
  in
  let results = Fuzz.Props.replay_dir (Option.value dir ~default:"corpus") in
  check bool_t "corpus present (dune copies test/corpus)" true
    (List.length results >= 6);
  List.iter
    (fun (file, escapes) ->
      List.iter
        (fun e ->
          Alcotest.failf "regression crasher %s escaped: %s" file
            (Fuzz.Props.escape_to_string e))
        escapes)
    results

let test_promote_idempotent () =
  let dir = Filename.temp_file "cosynth-promote" "" in
  Sys.remove dir;
  let mk ?(dialect = Fuzz.Corpus.Cisco) ~stage ~ctor ~input () =
    {
      Fuzz.Props.dialect;
      violation =
        { Fuzz.Props.property = "total-parse"; stage; constructor = ctor;
          detail = "boom" };
      fingerprint = "cafecafe";
      seed = 1;
      round = 0;
      input;
      minimized = input;
    }
  in
  let e1 = mk ~stage:"cisco-parse" ~ctor:"Failure" ~input:"hostname r1" () in
  let e2 = mk ~stage:"cisco-parse" ~ctor:"Failure" ~input:"hostname r2" () in
  let e3 =
    mk ~dialect:Fuzz.Corpus.Junos ~stage:"junos-print" ~ctor:"Not_found"
      ~input:"system { }" ()
  in
  (* Two escapes in one bucket promote once; the Junos bucket gets the
     dialect prefix so replay parses it under the right grammar. *)
  let written = Fuzz.Props.promote ~dir [ e1; e2; e3 ] in
  check int_t "one file per new bucket" 2 (List.length written);
  check bool_t "junos bucket carries the dialect prefix" true
    (List.exists
       (fun (name, _) -> String.length name >= 6 && String.sub name 0 6 = "junos-")
       written);
  List.iter
    (fun (name, (e : Fuzz.Props.escape)) ->
      let path = Filename.concat dir name in
      check bool_t (name ^ " written") true (Sys.file_exists path);
      check string_t (name ^ " holds the minimized trigger")
        e.Fuzz.Props.minimized
        (In_channel.with_open_bin path In_channel.input_all))
    written;
  (* The bucket slug lives in the filename: a second campaign hitting the
     same buckets promotes nothing. *)
  check int_t "idempotent across campaigns" 0
    (List.length (Fuzz.Props.promote ~dir [ e2; e1; e3 ]));
  (* Promoted entries replay before the long-stable seeds — the youngest
     regressions fail the gate first. *)
  Out_channel.with_open_bin (Filename.concat dir "aa-stable-seed.txt")
    (fun oc -> Out_channel.output_string oc "hostname stable");
  (match Fuzz.Props.replay_dir dir with
  | [] -> Alcotest.fail "replay_dir missed the corpus"
  | (first, _) :: rest ->
      check bool_t "a promoted entry replays first" true
        (String.length first >= 9
        && (String.sub first 0 9 = "promoted-"
           || String.sub first 0 15 = "junos-promoted-"));
      check string_t "stable seed replays last" "aa-stable-seed.txt"
        (fst (List.nth rest (List.length rest - 1))));
  (* Benign triggers replay clean end to end. *)
  List.iter
    (fun (file, escapes) ->
      if escapes <> [] then Alcotest.failf "promoted trigger %s re-escaped" file)
    (Fuzz.Props.replay_dir dir);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let test_promote_crash_atomic () =
  (* Promotion rides Store.write_atomic, which is three faultable ops
     (write tmp, fsync tmp, rename). Crash at each: the corpus entry is
     absent or whole — never a truncated seed — any [*.tmp] leftover is
     invisible to replay, and a fault-free retry lands the bucket. *)
  let dir = Filename.temp_file "cosynth-promote-crash" "" in
  Sys.remove dir;
  let e =
    {
      Fuzz.Props.dialect = Fuzz.Corpus.Cisco;
      violation =
        { Fuzz.Props.property = "total-parse"; stage = "cisco-parse";
          constructor = "Failure"; detail = "boom" };
      fingerprint = "cafecafe";
      seed = 1;
      round = 0;
      input = "hostname r1";
      minimized = "hostname r1";
    }
  in
  let target = Filename.concat dir "promoted-cisco-parse-failure.txt" in
  Fun.protect
    ~finally:(fun () ->
      Durable.Diskchaos.uninstall ();
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () ->
      for crash_after = 0 to 2 do
        Durable.Diskchaos.install
          (Durable.Diskchaos.make ~crash_after ~seed:(100 + crash_after) ());
        (match Fuzz.Props.promote ~dir [ e ] with
        | _ -> Alcotest.failf "write point %d did not crash" crash_after
        | exception Durable.Diskchaos.Crashed _ -> ());
        Durable.Diskchaos.uninstall ();
        if Sys.file_exists target then
          check string_t
            (Printf.sprintf "write point %d: target whole" crash_after)
            e.Fuzz.Props.minimized
            (In_channel.with_open_bin target In_channel.input_all);
        (* The crash may strand a [*.tmp]; replay must never pick it up. *)
        List.iter
          (fun (f, _) ->
            check bool_t (f ^ " is not a temp leftover") false
              (Filename.check_suffix f ".tmp"))
          (Fuzz.Props.replay_dir dir)
      done;
      (* Every crash point dies before the rename installs the target, so
         the bucket is still open and a fault-free retry promotes it. *)
      check int_t "retry promotes the open bucket" 1
        (List.length (Fuzz.Props.promote ~dir [ e ]));
      check bool_t "retry landed the bucket" true (Sys.file_exists target);
      check string_t "converged to the whole seed" e.Fuzz.Props.minimized
        (In_channel.with_open_bin target In_channel.input_all))

let test_canary_caught_and_minimized () =
  Resilience.Guard.reset ();
  match Fuzz.Props.canary ~max_rounds:200 () with
  | Error msg -> Alcotest.fail msg
  | Ok e ->
      check string_t "attributed to the planted stage" "cisco-parse/planted"
        e.Fuzz.Props.violation.Fuzz.Props.stage;
      check string_t "constructor recovered" "Failure"
        e.Fuzz.Props.violation.Fuzz.Props.constructor;
      check bool_t "shrunk to a handful of bytes" true
        (String.length e.Fuzz.Props.minimized <= 4);
      check bool_t "fingerprint present" true
        (String.length e.Fuzz.Props.fingerprint > 0)

let props = List.map QCheck_alcotest.to_alcotest [ prop_pipeline_total ]

let () =
  Alcotest.run "fuzz"
    [
      ( "mutator",
        [
          Alcotest.test_case "deterministic" `Quick test_mutator_deterministic;
          Alcotest.test_case "size bounded" `Quick test_mutator_bounded;
          Alcotest.test_case "weighted schedule deterministic" `Quick
            test_weighted_deterministic_given_history;
          Alcotest.test_case "weighted schedule biased by reward" `Quick
            test_weighted_bias;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimal trigger" `Quick test_shrink_minimal;
          Alcotest.test_case "result still fails" `Quick test_shrink_result_still_fails;
          Alcotest.test_case "passing input untouched" `Quick
            test_shrink_passing_input_untouched;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "regression replay clean" `Quick test_corpus_replay_clean;
          Alcotest.test_case "promotion idempotent + replay order" `Quick
            test_promote_idempotent;
          Alcotest.test_case "promotion atomic under crashes" `Quick
            test_promote_crash_atomic;
          Alcotest.test_case "canary caught + minimized" `Slow
            test_canary_caught_and_minimized;
        ] );
      ("properties", props);
    ]
