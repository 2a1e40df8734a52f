(* Seeded deterministic mutation: every mutant is a pure function of
   (seed, round, corpus), so any crash the fuzzer finds is replayable from
   two integers. The operators mirror how LLM drafts actually go wrong —
   truncated output, duplicated/dropped stanzas, swapped tokens, stray CLI
   noise, absurd numbers — plus raw bitflips for the adversarial tail. *)

let max_mutant_bytes = 65_536

(* Stray tokens an LLM plausibly interleaves with config text: prose, CLI
   prompt echoes, stray braces and delimiters, pathological numbers. *)
let dictionary =
  [
    "!";
    "{";
    "}";
    "}\n}";
    "{ {";
    ";";
    "#";
    "<<<<<<<";
    "Sure, here is the configuration:";
    "```";
    "end";
    "exit";
    "configure terminal";
    "router bgp";
    "neighbor";
    "route-map";
    "permit";
    "deny";
    "ip prefix-list";
    "set community";
    "match ip address";
    "interface";
    "0.0.0.0";
    "255.255.255.255";
    "999999999999999999";
    "-1";
    "4294967296";
    "/33";
    "/0";
    "\xff\xfe";
    "\x00";
    "\t\t\t";
  ]

let clip s =
  if String.length s <= max_mutant_bytes then s else String.sub s 0 max_mutant_bytes

let lines s = String.split_on_char '\n' s
let unlines ls = String.concat "\n" ls

(* Uniform index into a non-empty list/string; callers guard emptiness. *)
let pick rng n = Netcore.Rng.int rng (max 1 n)

let bitflip rng s =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    let i = pick rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl pick rng 8)));
    Bytes.to_string b
  end

let truncate rng s = if s = "" then s else String.sub s 0 (pick rng (String.length s))

let dup_line rng s =
  let ls = lines s in
  let n = List.length ls in
  let i = pick rng n in
  let reps = 1 + pick rng 3 in
  unlines
    (List.concat
       (List.mapi
          (fun j l -> if j = i then List.init (reps + 1) (fun _ -> l) else [ l ])
          ls))

let del_line rng s =
  let ls = lines s in
  match ls with
  | [] | [ _ ] -> s
  | _ ->
      let i = pick rng (List.length ls) in
      unlines (List.filteri (fun j _ -> j <> i) ls)

let token_swap rng s =
  let ls = lines s in
  let n = List.length ls in
  if n < 2 then s
  else begin
    let i = pick rng n and j = pick rng n in
    unlines
      (List.mapi
         (fun k l -> if k = i then List.nth ls j else if k = j then List.nth ls i else l)
         ls)
  end

let splice rng ~corpus s =
  match corpus with
  | [] -> s
  | _ ->
      let other = List.nth corpus (pick rng (List.length corpus)) in
      if s = "" || other = "" then s ^ other
      else
        let keep = pick rng (String.length s) in
        let cut = pick rng (String.length other) in
        String.sub s 0 keep ^ String.sub other cut (String.length other - cut)

let insert_noise rng s =
  let tok = List.nth dictionary (pick rng (List.length dictionary)) in
  if s = "" then tok
  else
    let i = pick rng (String.length s + 1) in
    String.sub s 0 i ^ tok ^ String.sub s i (String.length s - i)

(* Replace one digit run with a pathological number. *)
let num_extreme rng s =
  let extremes = [ "0"; "-1"; "4294967296"; "999999999999999999"; "65536"; "033" ] in
  let n = String.length s in
  let rec first_digit i = if i >= n then None else if s.[i] >= '0' && s.[i] <= '9' then Some i else first_digit (i + 1) in
  (* Start the scan at a random offset so different rounds hit different
     numbers in the same base text. *)
  match first_digit (pick rng (max 1 n)) with
  | None -> s
  | Some i ->
      let j = ref i in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      String.sub s 0 i
      ^ List.nth extremes (pick rng (List.length extremes))
      ^ String.sub s !j (n - !j)

let ops =
  [ bitflip; truncate; dup_line; del_line; token_swap; insert_noise; num_extreme ]

(* The splice operator lives at index [List.length ops] — it has a
   different shape (needs the corpus), so it sits past the plain ops. *)
let n_ops = List.length ops + 1

let op_names =
  [|
    "bitflip"; "truncate"; "dup-line"; "del-line"; "token-swap"; "insert-noise";
    "num-extreme"; "splice";
  |]

let op_name k = if k >= 0 && k < n_ops then op_names.(k) else "?"

let apply rng ~corpus k s =
  clip (if k = List.length ops then splice rng ~corpus s else (List.nth ops k) rng s)

let mutate rng ~corpus s = apply rng ~corpus (Netcore.Rng.int rng n_ops) s

(* The (seed, round) stream: a distinct odd multiplier pair keeps it
   disjoint from every chaos/jitter/worker stream in Resilience.Chaos. *)
let stream_seed ~seed ~round = (seed * 2_654_435_761) + (round * 40_503) + 19

let mutant ~seed ~round ~corpus =
  let rng = Netcore.Rng.make (stream_seed ~seed ~round) in
  match corpus with
  | [] -> ""
  | _ ->
      let base = List.nth corpus (pick rng (List.length corpus)) in
      let n_ops = 1 + Netcore.Rng.int rng 4 in
      let rec go n s = if n = 0 then s else go (n - 1) (mutate rng ~corpus s) in
      go n_ops base

(* ------------------------------------------------------------------ *)
(* Weighted scheduling                                                  *)
(* ------------------------------------------------------------------ *)

(* Coverage-guided operator bias: the campaign keeps a score per operator,
   bumped when an operator participated in a crashing input (more for one
   that opened a previously unseen crash bucket). Operator k is drawn with
   weight [1 + score k] — the +1 floor keeps every operator live, so the
   bias can never starve an operator out of the schedule entirely.

   The draws still come from the same [(seed, round)] stream, so a mutant
   is a pure function of (seed, round, corpus, history-so-far): replaying a
   campaign from its seed list regenerates the identical inputs, scores and
   crashes. *)

type history = { scores : int array }

let history () = { scores = Array.make n_ops 0 }
let reward h ~op points = if op >= 0 && op < n_ops then h.scores.(op) <- h.scores.(op) + points
let score h ~op = if op >= 0 && op < n_ops then h.scores.(op) else 0

let weighted_pick rng h =
  let total = Array.fold_left (fun acc s -> acc + 1 + s) 0 h.scores in
  let r = Netcore.Rng.int rng total in
  let rec go k acc =
    let acc = acc + 1 + h.scores.(k) in
    if r < acc || k = n_ops - 1 then k else go (k + 1) acc
  in
  go 0 0

let weighted_mutant ~seed ~round ~corpus ~history =
  let rng = Netcore.Rng.make (stream_seed ~seed ~round) in
  match corpus with
  | [] -> ("", [])
  | _ ->
      let base = List.nth corpus (pick rng (List.length corpus)) in
      let rounds = 1 + Netcore.Rng.int rng 4 in
      let rec go n s applied =
        if n = 0 then (s, List.rev applied)
        else
          let k = weighted_pick rng history in
          go (n - 1) (apply rng ~corpus k s) (k :: applied)
      in
      go rounds base []
