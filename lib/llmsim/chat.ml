open Policy

type strength = Auto | Human

type prompt = { text : string; refs : Fault.t list; strength : strength }

type t = {
  dialect_ : Fault.dialect;
  correct : Config_ir.t;
  mutable live : Fault.t list;
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
      live = [];
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
  t.live <- sampled @ forced;
  t

(* [Fault.render] is pure in (dialect, correct IR, live faults), and a
   draft recurs: a prompt that changed nothing leaves the live faults as
   they were, and every loop over one task starts from the same few fault
   sets. So every chat shares one table of renders. [Hashtbl.hash] would
   stop near the IR's hostname and the first fault, so both are hashed
   deeper. *)
module Renders = Netcore.Memo_table.Make (struct
  type t = Fault.dialect * Config_ir.t * Fault.t list

  let hash (dialect, correct, live) =
    Hashtbl.hash
      (dialect, Hashtbl.hash_param 100 1000 correct, Hashtbl.hash_param 100 1000 live)
end)

let renders = Renders.create ~name:"render_memo" ~cap:4096

let draft t =
  Renders.find renders (t.dialect_, t.correct, t.live) (fun () ->
      Fault.render t.dialect_ t.correct t.live)

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
  t.live <- List.filter (fun x -> not (Fault.equal x f)) t.live;
  t.fixed <- f :: t.fixed

let maybe_regress t =
  if Netcore.Rng.bernoulli t.rng t.regression_rate then
    match Netcore.Rng.choice t.rng (injectable t) with
    | Some f -> t.live <- t.live @ [ f ]
    | None -> ()

let maybe_reintroduce t =
  if Netcore.Rng.bernoulli t.rng t.reintroduction_rate then
    match Netcore.Rng.choice t.rng t.fixed with
    | Some f when not (List.exists (Fault.equal f) t.live) ->
        t.live <- t.live @ [ f ];
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
            t.live <-
              List.map
                (fun (f : Fault.t) ->
                  if Fault.equal f fault then Fault.make successor f.Fault.target else f)
                t.live;
            t.fixed <- fault :: t.fixed
        | _ -> ()

let respond t prompt = List.iter (handle_ref t prompt.strength) prompt.refs

let auto_prompt ?(text = "") f = { text; refs = [ f ]; strength = Auto }
let human_prompt ?(text = "") f = { text; refs = [ f ]; strength = Human }
