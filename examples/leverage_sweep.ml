(* Leverage sweeps: how the auto/human prompt ratio responds to the knobs
   the paper discusses — the IIP database, network size, and how patient
   the automated loop is before punting to the human.

   The seeded runs are independent, so they fan out across an Exec.Pool
   (size from COSYNTH_POOL_SIZE or the machine); results are bit-identical
   to a sequential sweep, just faster on multi-core hardware.

   Run with: dune exec examples/leverage_sweep.exe *)

let () =
  let cisco_text = Cisco.Samples.border_router in
  let pool = Exec.Pool.create () in
  Printf.printf "(worker pool: %d domain(s))\n\n" (Exec.Pool.size pool);

  print_endline "== Translation leverage across 20 seeds ==";
  let s, wall =
    Exec.Sweep.timed (fun () ->
        Cosynth.Metrics.translation_summary ~runs:20 ~pool ~cisco_text ())
  in
  Format.printf "  %a@." Cosynth.Metrics.pp_summary s;
  Printf.printf "  (%.2fs wall)\n" wall;

  print_endline "\n== No-transit leverage vs star size ==";
  List.iter
    (fun routers ->
      let s = Cosynth.Metrics.no_transit_summary ~runs:10 ~pool ~routers () in
      Printf.printf "  %2d routers: auto %.1f human %.1f leverage %.1fx\n" routers
        s.Cosynth.Metrics.mean_auto s.Cosynth.Metrics.mean_human
        s.Cosynth.Metrics.mean_leverage)
    [ 3; 5; 7; 9 ];

  print_endline "\n== With vs without the IIP database (7 routers) ==";
  List.iter
    (fun use_iips ->
      let s = Cosynth.Metrics.no_transit_summary ~runs:10 ~routers:7 ~use_iips ~pool () in
      Printf.printf "  iips=%-5b auto %.1f human %.1f leverage %.1fx\n" use_iips
        s.Cosynth.Metrics.mean_auto s.Cosynth.Metrics.mean_human
        s.Cosynth.Metrics.mean_leverage)
    [ true; false ];

  print_endline "\n== Translation: stall threshold (auto attempts before punting) ==";
  List.iter
    (fun stall_threshold ->
      let transcripts =
        Exec.Sweep.run_seeds ~pool ~seeds:(Exec.Sweep.seeds ~base:9000 ~n:10)
          (fun seed ->
            (Cosynth.Driver.run_translation ~seed ~stall_threshold ~cisco_text ())
              .Cosynth.Driver.transcript)
      in
      let s = Cosynth.Metrics.summarize transcripts in
      Printf.printf "  threshold %d: auto %.1f human %.1f leverage %.1fx\n" stall_threshold
        s.Cosynth.Metrics.mean_auto s.Cosynth.Metrics.mean_human
        s.Cosynth.Metrics.mean_leverage)
    [ 1; 2; 4; 6 ];

  let ms = Exec.Memo.stats () in
  Printf.printf "\n(verifier memo: %d hits / %d misses, %.0f%% hit rate)\n"
    ms.Exec.Memo.hits ms.Exec.Memo.misses
    (100. *. Netcore.Memo_table.hit_rate ms);
  Exec.Pool.shutdown pool
