(* Persistent crash triage: the Guard registry, journaled across runs.

   Each [append] writes one JSON object per (stage, constructor) bucket on
   its own line, through Durable.Store — append-only and fsync'd per row,
   so concurrent tools never corrupt earlier rows, a crashed run still
   leaves every row it got to journal, and (the bug this migration fixed)
   rows are on disk before [append] returns rather than parked in a
   buffered channel a crash would discard. [load] re-merges the history;
   torn or bit-flipped rows fail the store's CRC check and are skipped
   rather than fatal. *)

open Netcore

type row = {
  stage : string;
  constructor : string;
  count : int;
  first_seed : int;  (* seed of the earliest line mentioning this bucket *)
  last_seed : int;  (* seed of the latest line mentioning this bucket *)
  first_ts : float option;  (* wall-clock of the earliest timestamped line *)
  last_ts : float option;  (* wall-clock of the latest timestamped line *)
}

let encode_row ~seed ~ts (stage, constructor, count) =
  Json.Obj
    ([
       ("stage", Json.String stage);
       ("ctor", Json.String constructor);
       ("count", Json.Int count);
       ("seed", Json.Int seed);
     ]
    @ match ts with None -> [] | Some t -> [ ("ts", Json.Float t) ])

let append ?ts ~path ~seed crashes =
  if crashes <> [] then begin
    let store = Durable.Store.open_ path in
    Fun.protect
      ~finally:(fun () -> Durable.Store.close store)
      (fun () ->
        List.iter
          (fun bucket ->
            (* A false append (injected fault) loses that one row, exactly
               like a crash between rows would; the rows already appended
               are fsync'd and safe. *)
            ignore (Durable.Store.append store (encode_row ~seed ~ts bucket) : bool))
          crashes)
  end

let decode_row j =
  let mem f name = Option.bind (Json.member name j) f in
  match
    ( mem Json.to_str "stage",
      mem Json.to_str "ctor",
      mem Json.to_int "count",
      mem Json.to_int "seed" )
  with
  | Some stage, Some constructor, Some count, Some seed ->
      (* [ts] is optional: rows journaled before timestamps existed
         load fine and simply show "-" in the triage table. *)
      Some (stage, constructor, count, seed, mem Json.to_float "ts")
  | _ -> None

let load path =
  let records, _stats = Durable.Store.read path in
  let order = ref [] in
  let merged = Hashtbl.create 16 in
  List.iter
    (fun j ->
      match decode_row j with
      | None -> ()
      | Some (stage, constructor, count, seed, ts) -> (
          let key = (stage, constructor) in
          match Hashtbl.find_opt merged key with
          | None ->
              order := key :: !order;
              Hashtbl.replace merged key
                {
                  stage;
                  constructor;
                  count;
                  first_seed = seed;
                  last_seed = seed;
                  first_ts = ts;
                  last_ts = ts;
                }
          | Some r ->
              let first_ts = match r.first_ts with None -> ts | some -> some in
              let last_ts = match ts with None -> r.last_ts | some -> some in
              Hashtbl.replace merged key
                {
                  r with
                  count = r.count + count;
                  last_seed = seed;
                  first_ts;
                  last_ts;
                }))
    records;
  List.rev_map (fun key -> Hashtbl.find merged key) !order
  |> List.sort (fun a b ->
         match compare a.stage b.stage with
         | 0 -> compare a.constructor b.constructor
         | c -> c)

let record ?ts ~path ~seed () = append ?ts ~path ~seed (Guard.crashes ())
