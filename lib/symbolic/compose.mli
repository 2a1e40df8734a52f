(** Symbolic composition of routing policies: the image of a route space
    under a route map, and the chaining of two maps.

    This is the machinery behind Lightyear-style modular proofs: to show
    that "hub tags at ingress" plus "hub filters at egress" imply no
    transit, compute the image of the full space under the ingress policy
    and check the egress policy denies all of it. Both functions take maps
    already compiled by {!Transfer.compile}, so a proof over many map pairs
    compiles each map, and images each ingress map, once.

    Images are sound over-approximations: the [must] side of community
    cubes is exact under additive sets, while replacements and deletions
    lose the absence information they cannot represent; AS-path constraints
    are reset when the effect prepends. Soundness here means every concrete
    route that can come out of the policy is inside the computed image, so
    "image ∩ bad = empty" is a valid proof of absence. *)

val image : Transfer.region list -> Pred.t -> Pred.t
(** Image of an input space under a compiled map: union over its permit
    regions of the region's effect applied to [region ∩ input]
    (over-approximate, see above). *)

val permits : Transfer.region list -> Pred.t -> Pred.t
(** The part of an input space a compiled map permits: union over its
    permit regions of [region ∩ input]. Chaining two maps is
    [permits regions_b (image regions_a input)]; empty means nothing can
    pass through both policies. *)
