type stats = Netcore.Memo_table.stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
}

module Parses = Netcore.Memo_table.Make (struct
  type t = Batfish.Parse_check.dialect * Netcore.Draft.t

  let hash (dialect, (d : Netcore.Draft.t)) = Hashtbl.hash (dialect, d.hash)
end)

(* Drafts are bounded in practice (a handful of live faults over one oracle
   config), but a long sweep over many topologies could still accumulate;
   cap the table rather than grow without bound. *)
let parses = Parses.create ~name:"memo" ~cap:16_384

let check_draft dialect (d : Netcore.Draft.t) =
  Parses.find parses (dialect, d) (fun () -> Batfish.Parse_check.check dialect d.text)

let check dialect text = check_draft dialect (Netcore.Draft.of_string text)

let stats () = Netcore.Memo_table.stats "memo"

(* [Hashtbl.hash] stops after 10 meaningful values, near the map's name, so
   the map is hashed deeper: every draft editing a later stanza of one map
   would otherwise share a bucket. *)
let verdict_key_hash (k : Batfish.Search_route_policies.verdict_key) =
  Hashtbl.hash (Hashtbl.hash_param 100 1000 k.map, Hashtbl.hash k.env, Hashtbl.hash k.specs)

module Verdicts = Netcore.Memo_table.Make (struct
  type t = Batfish.Search_route_policies.verdict_key

  let hash = verdict_key_hash
end)

(* A no-transit loop meets a few dozen distinct hub maps. *)
let verdicts = Verdicts.create ~name:"verdict_memo" ~cap:1024

let route_policies config specs =
  Batfish.Search_route_policies.check_with ~lookup:(Verdicts.find verdicts) config specs

(* A loop re-checks the same draft many times, so the whole answer is kept
   on the text the verifier is handed. *)
module Drafts = Netcore.Memo_table.Make (struct
  type t = Netcore.Draft.t * Batfish.Search_route_policies.spec list

  let hash ((d : Netcore.Draft.t), specs) = Hashtbl.hash (d.hash, Hashtbl.hash specs)
end)

(* A no-transit loop meets a few dozen distinct drafts, and a draft recurs
   within its own loop, so the last thousand answers keep every hit. *)
let drafts = Drafts.create ~name:"verdict_memo" ~cap:1024

(* On a miss the syntax stage has just parsed the text, so [check] is a
   hit, and a draft that changed one map asks the verdict table for that
   map only. *)
let route_policies_of_draft d specs =
  Drafts.find drafts (d, specs) (fun () ->
      route_policies (fst (check_draft Batfish.Parse_check.Cisco_ios d)) specs)

let reset = Netcore.Memo_table.reset
