(** Rendering the vendor-neutral IR as Cisco IOS configuration text.

    The output is canonical: parsing it back with {!Parser.parse} yields the
    same IR and no diagnostics (a property the test suite enforces). *)

val print : Policy.Config_ir.t -> string

val print_route_map : Policy.Route_map.t -> string
(** One route map's lines, as {!print} writes them. *)
