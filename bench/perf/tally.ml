(* Per-run bookkeeping of unit outcomes: verdicts, leverage, and every
   failed output check. *)

type t = {
  lev : float Stat.Sample.t;  (** Finite leverages of loop units. *)
  mutable attempted : int;
  mutable failed : int;
  mutable verdicts : int;  (** Loop units (the verified_share base). *)
  mutable verified : int;
  mutable problems : string list;  (** The first few, newest first. *)
  expected : (int, string) Hashtbl.t option;
  fingerprints : Buffer.t option;
}

(* {2 Expected fingerprints}

   [expected/<workload>.tsv] holds one line per unit index for one seed,
   captured at the commit that defined the benchmark:
   ["# seed N"], a column header, then ["index\tfingerprint"]. *)

let tsv_header = "# unit\tkind\tauto|errors\thuman|diags\trounds\tconverged\tverdict"

let load_expected path ~seed =
  if not (Sys.file_exists path) then None
  else
    let lines = String.split_on_char '\n' (Stat.read_file path) in
    match lines with
    | first :: rest when first = Printf.sprintf "# seed %d" seed ->
        let t = Hashtbl.create 1024 in
        List.iter
          (fun l ->
            if l <> "" && l.[0] <> '#' then
              match String.index_opt l '\t' with
              | Some i ->
                  Hashtbl.replace t
                    (int_of_string (String.sub l 0 i))
                    (String.sub l (i + 1) (String.length l - i - 1))
              | None -> failwith (path ^ ": malformed line: " ^ l))
          rest;
        Some t
    | _ -> None

let create ?expected ?(record_fingerprints = false) () =
  {
    lev = Stat.Sample.create ();
    attempted = 0;
    failed = 0;
    verdicts = 0;
    verified = 0;
    problems = [];
    expected;
    fingerprints = (if record_fingerprints then Some (Buffer.create 4096) else None);
  }

(* Record unit [i]: either its outcome with the result of its independent
   re-check, or the error it raised or was answered with. *)
let record t i result =
  t.attempted <- t.attempted + 1;
  let problems =
    match result with
    | Error msg -> [ msg ]
    | Ok ((o : Work.outcome), recheck) ->
        (match t.fingerprints with
        | Some b -> Printf.bprintf b "%d\t%s\n" i o.Work.fingerprint
        | None -> ());
        (match o.Work.verdict with
        | Some v ->
            t.verdicts <- t.verdicts + 1;
            if v then t.verified <- t.verified + 1
        | None -> ());
        if Float.is_finite o.Work.leverage then Stat.Sample.add t.lev o.Work.leverage;
        Option.to_list recheck
        @
        match Option.bind t.expected (fun e -> Hashtbl.find_opt e i) with
        | Some fp when fp <> o.Work.fingerprint ->
            [ Printf.sprintf "fingerprint %S, expected %S" o.Work.fingerprint fp ]
        | _ -> []
  in
  if problems <> [] then begin
    t.failed <- t.failed + 1;
    if List.length t.problems < 5 then
      t.problems <- Printf.sprintf "unit %d: %s" i (String.concat "; " problems) :: t.problems
  end

let verified_share t =
  if t.verdicts = 0 then 0. else float_of_int t.verified /. float_of_int t.verdicts

let write_fingerprints t ~seed path =
  match t.fingerprints with
  | None -> ()
  | Some b ->
      Out_channel.with_open_bin path (fun oc ->
          Printf.fprintf oc "# seed %d\n%s\n%s" seed tsv_header (Buffer.contents b))
