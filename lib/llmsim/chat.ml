open Policy

type strength = Auto | Human

type prompt = { text : string; refs : Fault.t list; strength : strength }

type t = {
  dialect_ : Fault.dialect;
  correct : Config_ir.t;
  correct_hash : int;  (* of the dialect and, deeply, the correct IR, at [start] *)
  mutable live : Fault.t list;
  mutable key_hash : int;  (* the render key's: [correct_hash] and [live] *)
  mutable fixed : Fault.t list;
  rng : Netcore.Rng.t;
  iips : string list;
  regression_rate : float;
  reintroduction_rate : float;
  class_filter : Error_class.t -> bool;
  quality : float;
}

let suppressed iips (cls : Error_class.t) =
  match (Error_class.profile cls).Error_class.iip with
  | Some iip -> List.mem iip iips
  | None -> false

(* The render key's hash is carried, so a draft walks neither the IR nor
   the faults: it is recomputed from [correct_hash] when the faults change. *)
let set_live t live =
  t.live <- live;
  t.key_hash <- List.fold_left (fun h f -> Hashtbl.hash (h, f)) t.correct_hash live

let injectable t =
  List.filter
    (fun (f : Fault.t) ->
      t.class_filter f.Fault.class_
      && (not (suppressed t.iips f.Fault.class_))
      && (not (List.exists (Fault.equal f) t.live))
      && (Error_class.profile f.Fault.class_).Error_class.injection_rate > 0.0)
    (Fault.opportunities t.dialect_ t.correct)

let start ?(seed = 42) ?(iips = []) ?(regression_rate = 0.12)
    ?(reintroduction_rate = 0.05) ?(force_faults = []) ?(suppress_random = false)
    ?(class_filter = fun _ -> true) ?(quality = 0.0) dialect_ ~correct =
  let quality = Float.max 0.0 (Float.min 1.0 quality) in
  let t =
    {
      dialect_;
      correct;
      correct_hash = Hashtbl.hash (dialect_, Hashtbl.hash_param 100 1000 correct);
      live = [];
      key_hash = 0;
      fixed = [];
      rng = Netcore.Rng.make seed;
      iips;
      regression_rate = regression_rate *. (1.0 -. quality);
      reintroduction_rate = reintroduction_rate *. (1.0 -. quality);
      class_filter;
      quality;
    }
  in
  let sampled =
    if suppress_random then []
    else
      List.filter
        (fun (f : Fault.t) ->
          class_filter f.Fault.class_
          && (not (suppressed iips f.Fault.class_))
          && Netcore.Rng.bernoulli t.rng
               ((Error_class.profile f.Fault.class_).Error_class.injection_rate
               *. (1.0 -. quality)))
        (Fault.opportunities dialect_ correct)
  in
  let forced = List.filter (fun f -> not (List.exists (Fault.equal f) sampled)) force_faults in
  set_live t (sampled @ forced);
  t

(* [Fault.render] is pure in (dialect, correct IR, live faults), and a
   draft recurs: a prompt that changed nothing leaves the live faults as
   they were, and every loop over one task starts from the same few fault
   sets. So every chat shares one table of renders, keyed on the chat's
   carried hash ahead of the three values it hashes. A miss hashes the
   rendered text once and stores it with the render. *)
module Renders = Netcore.Memo_table.Make (struct
  type t = int * Fault.dialect * Config_ir.t * Fault.t list

  let hash (key_hash, _, _, _) = key_hash
end)

let renders = Renders.create ~name:"render_memo" ~cap:4096

let hashed_draft t =
  Renders.find renders (t.key_hash, t.dialect_, t.correct, t.live)
    (fun () -> Netcore.Draft.of_string (Fault.render t.dialect_ t.correct t.live))

let draft t = (hashed_draft t).Netcore.Draft.text

let correct t = t.correct
let live_faults t = t.live
let fixed_faults t = t.fixed
let dialect t = t.dialect_

(* Match a prompt reference to a live fault: exact match first, then the
   first live fault of the same class (the humanizer cannot always recover a
   precise location from a verifier message, but the class is reliable). *)
let resolve t (ref_ : Fault.t) =
  match List.find_opt (Fault.equal ref_) t.live with
  | Some f -> Some f
  | None ->
      List.find_opt
        (fun (f : Fault.t) -> Error_class.equal f.Fault.class_ ref_.Fault.class_)
        t.live

let remove_fault t f =
  set_live t (List.filter (fun x -> not (Fault.equal x f)) t.live);
  t.fixed <- f :: t.fixed

let maybe_regress t =
  if Netcore.Rng.bernoulli t.rng t.regression_rate then
    match Netcore.Rng.choice t.rng (injectable t) with
    | Some f -> set_live t (t.live @ [ f ])
    | None -> ()

let maybe_reintroduce t =
  if Netcore.Rng.bernoulli t.rng t.reintroduction_rate then
    match Netcore.Rng.choice t.rng t.fixed with
    | Some f when not (List.exists (Fault.equal f) t.live) ->
        set_live t (t.live @ [ f ]);
        t.fixed <- List.filter (fun x -> not (Fault.equal x f)) t.fixed
    | _ -> ()

(* Probability that a failed automated fix morphs the fault into its
   successor class rather than leaving the draft untouched. *)
let morph_rate = 0.5

let handle_ref t strength ref_ =
  match resolve t ref_ with
  | None -> ()
  | Some fault ->
      let profile = Error_class.profile fault.Fault.class_ in
      let base_fix =
        match strength with
        | Auto -> profile.Error_class.auto_fix
        | Human -> profile.Error_class.human_fix
      in
      (* A better model converts correction prompts more reliably. *)
      let fix_p = base_fix +. ((1.0 -. base_fix) *. t.quality) in
      if Netcore.Rng.bernoulli t.rng fix_p then begin
        remove_fault t fault;
        maybe_regress t;
        maybe_reintroduce t
      end
      else
        match (strength, profile.Error_class.successor) with
        | Auto, Some successor when Netcore.Rng.bernoulli t.rng morph_rate ->
            set_live t
              (List.map
                 (fun (f : Fault.t) ->
                   if Fault.equal f fault then Fault.make successor f.Fault.target else f)
                 t.live);
            t.fixed <- fault :: t.fixed
        | _ -> ()

let respond t prompt = List.iter (handle_ref t prompt.strength) prompt.refs
