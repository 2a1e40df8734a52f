(** The star network of Figure 4: the paper's "network generator".

    One hub router (R1) is attached to a CUSTOMER network, and each spoke
    router (R2..Rn) is attached to a different ISP network; all spokes
    connect directly to the hub. The generator "only needs the number of
    routers as input" and has "two outputs: 1) a textual description and 2) a
    JSON dictionary for the entire network topology".

    Addressing scheme (documented so the topology verifier's expectations in
    Table 3 are reproducible):
    - Router [Rk] owns AS number [k].
    - The link between R1 and Rk (k >= 2) uses subnet [(k-1).0.0.0/24]; R1's
      side is [Ethernet0/(k-1)] at [(k-1).0.0.1] and Rk's side is
      [Ethernet0/1] at [(k-1).0.0.2].
    - R1's router id is [1.0.0.1]; Rk's router id is [(k-1).0.0.2].
    - The CUSTOMER network [10.0.0.0/24] hangs off R1's [Ethernet0/0];
      ISP k's network [10.k.0.0/24] hangs off Rk's [Ethernet0/0].
    - The community the hub attaches to routes learned from spoke Rk is
      [(98+k):1], i.e. 100:1 for R2, 101:1 for R3, ... as in Section 4.2. *)

type t = {
  topology : Topology.t;
  hub : string;  (** ["R1"]. *)
  spokes : string list;  (** [["R2"; ...; "Rn"]]. *)
  customer_prefix : Prefix.t;
}

val make : routers:int -> t
(** [make ~routers:n] builds the star with [n] routers total ([n - 1] ISPs).
    Raises [Invalid_argument] when [n < 2] or [n > 200] (the /24-per-spoke
    addressing scheme runs out beyond that). *)

val isp_prefix : t -> string -> Prefix.t option
(** The ISP network attached to a spoke, [None] for the hub or unknown
    names. *)

val community_of : t -> string -> Community.t option
(** The community tagging routes learned from a given spoke. *)

val description : t -> string
(** Output 1 of the generator: the natural-language topology prompt. *)

val to_json : t -> Json.t
(** Output 2 of the generator: the JSON topology dictionary. *)
