type config = {
  members : Resilience.Verifier.kind list;
  oracle : bool;
  rate : float;
  seed : int;
}

let make ?(members = []) ?(oracle = false) ?(rate = 0.0) ?(seed = 0) () =
  let members =
    (* canonical order + dedup so [describe] and the decision streams are
       insensitive to CLI argument order *)
    List.filter (fun k -> List.mem k members) Resilience.Verifier.all_kinds
  in
  { members; oracle; rate = Float.min 1.0 (Float.max 0.0 rate); seed }

let none = make ()

(* An oracle flag without members is a coalition of nobody: still none. *)
let is_none c = c.rate = 0.0 || c.members = []

let describe c =
  if is_none c then "off"
  else
    Printf.sprintf "coalition {%s}%s rate=%.2f"
      (String.concat ", " (List.map Resilience.Verifier.kind_name c.members))
      (if c.oracle then " + oracle" else "")
      c.rate

type t = { config : config; salt : int }

let create ?(salt = 0) config = { config; salt }
let derive t idx = { t with salt = t.salt + ((idx + 1) * 104_395_303) }

(* The whole point of a coalition is that every colluder tells the SAME lie
   about the same input: the decision stream is keyed on the input's
   fingerprint, not a per-wrapper call counter, so the lying member and the
   compromised oracle service draw identical verdicts for identical inputs
   — PR 8's cross-check sees two "independent" checks agree on the
   suppressed answer. Primes are unused by every other stream. *)
let fires t ~kind_ix input =
  t.config.rate > 0.0
  &&
  let h = Hashtbl.hash (Resilience.Guard.fingerprint_value input) in
  Netcore.Rng.bernoulli
    (Netcore.Rng.make
       ((t.config.seed * 86_028_121) + (t.salt * 49_979_687) + (kind_ix * 15_485_863)
      + (h * 86_028_157) + 73))
    t.config.rate

(* Arm one wrapped verifier. Members lie by suppression only (the
   false-negative signature — fabricated findings would disagree with the
   clean-lying oracle and give the coalition away); when the coalition owns
   the oracle, the same suppression is installed as the cross-check oracle
   service for the member kinds. A no-op for non-members and for an
   all-zero config, preserving rate-0 byte-identity. *)
let arm t ~lens v =
  if is_none t.config then ()
  else begin
    let k = Resilience.Verifier.kind v in
    if List.mem k t.config.members then begin
      let kind_ix = Resilience.Verifier.kind_index k in
      let suppress honest =
        if Resilience.Verifier.dirty v honest && fires t ~kind_ix honest then
          lens.Verifier.clean honest
        else honest
      in
      let inner = Resilience.Verifier.runner v in
      Resilience.Verifier.install v (fun input ->
          match inner input with Error _ as e -> e | Ok honest -> Ok (suppress honest));
      if t.config.oracle then begin
        let inner_oracle = Resilience.Verifier.oracle_runner v in
        Resilience.Verifier.install_oracle v (fun input ->
            match inner_oracle input with
            | Error _ as e -> e
            | Ok honest -> Ok (suppress honest))
      end
    end
  end
