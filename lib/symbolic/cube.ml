open Netcore

type t = {
  prefixes : Prefix_space.t;
  comms : Comm_constr.t;
  sources : Source_set.t;
  med : Int_constr.t;
  aspath : Aspath_constr.t;
}

let full =
  {
    prefixes = Prefix_space.full;
    comms = Comm_constr.top;
    sources = Source_set.full;
    med = Int_constr.any;
    aspath = Aspath_constr.top;
  }

let make ?(prefixes = Prefix_space.full) ?(comms = Comm_constr.top)
    ?(sources = Source_set.full) ?(med = Int_constr.any)
    ?(aspath = Aspath_constr.top) () =
  { prefixes; comms; sources; med; aspath }

let is_empty c = Prefix_space.is_empty c.prefixes || Source_set.is_empty c.sources

let inter a b =
  let prefixes = Prefix_space.inter a.prefixes b.prefixes in
  let sources = Source_set.inter a.sources b.sources in
  if Prefix_space.is_empty prefixes || Source_set.is_empty sources then None
  else
    match Comm_constr.inter a.comms b.comms with
    | None -> None
    | Some comms -> (
        match Int_constr.inter a.med b.med with
        | None -> None
        | Some med -> (
            match Aspath_constr.inter a.aspath b.aspath with
            | None -> None
            | Some aspath -> Some { prefixes; comms; sources; med; aspath }))

(* a \ b as a union of cubes: peel one dimension at a time, intersecting the
   previously peeled dimensions with b's component so the pieces are
   disjoint. *)
let diff a b =
  let pieces = ref [] in
  let emit c = if not (is_empty c) then pieces := c :: !pieces in
  (* Dimension 1: prefixes outside b. *)
  emit { a with prefixes = Prefix_space.diff a.prefixes b.prefixes };
  let prefixes = Prefix_space.inter a.prefixes b.prefixes in
  if not (Prefix_space.is_empty prefixes) then (
    (* Dimension 2: communities outside b. *)
    List.iter
      (fun piece ->
        match Comm_constr.inter a.comms piece with
        | Some comms -> emit { a with prefixes; comms }
        | None -> ())
      (Comm_constr.complement b.comms);
    match Comm_constr.inter a.comms b.comms with
    | None -> ()
    | Some comms -> (
        (* Dimension 3: sources outside b. *)
        emit { a with prefixes; comms; sources = Source_set.diff a.sources b.sources };
        let sources = Source_set.inter a.sources b.sources in
        if not (Source_set.is_empty sources) then (
          (* Dimension 4: MED outside b. *)
          List.iter
            (fun piece ->
              match Int_constr.inter a.med piece with
              | Some med -> emit { a with prefixes; comms; sources; med }
              | None -> ())
            (Int_constr.complement b.med);
          match Int_constr.inter a.med b.med with
          | None -> ()
          | Some med ->
              (* Dimension 5: AS path outside b. *)
              List.iter
                (fun piece ->
                  match Aspath_constr.inter a.aspath piece with
                  | Some aspath -> emit { prefixes; comms; sources; med; aspath }
                  | None -> ())
                (Aspath_constr.complement b.aspath))));
  !pieces

let satisfies ~env (r : Route.t) c =
  Prefix_space.mem r.prefix c.prefixes
  && Comm_constr.satisfies r.communities c.comms
  && Source_set.mem r.source c.sources
  && Int_constr.satisfies r.med c.med
  && Aspath_constr.satisfies ~env:env.Policy.Eval.as_path_lists r.as_path c.aspath

let sample ~env ~universe c =
  if is_empty c then None
  else
    match Prefix_space.sample c.prefixes with
    | None -> None
    | Some prefix -> (
        match Source_set.choose c.sources with
        | None -> None
        | Some source -> (
            match
              Aspath_constr.sample ~env:env.Policy.Eval.as_path_lists ~universe c.aspath
            with
            | None -> None
            | Some as_path ->
                Some
                  (Route.make ~as_path
                     ~communities:(Comm_constr.sample c.comms)
                     ~med:(Int_constr.sample c.med) ~source prefix)))
