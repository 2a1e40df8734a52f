(** Rendering the vendor-neutral IR as Junos configuration text.

    Vendor mapping notes (also in DESIGN.md):
    - Prefix lists whose entries are all exact permits become
      [policy-options prefix-list] definitions and are referenced by name;
      lists with ge/le ranges or deny entries have no Junos prefix-list
      equivalent (the crux of the paper's "ge 24" issue), so their use sites
      are compiled through the symbolic prefix-space engine into equivalent
      pure-permit [route-filter] lines.
    - [set community] actions become named community definitions plus
      [community add]/[community set]/[community delete] then-clauses.
    - BGP network statements are rendered as
      [routing-options { announce { <prefix>; } }] — a documented stand-in
      for the direct-route origination policy real Junos would use.
    - Redistributions are not expressible directly; {!Translate.of_cisco_ir}
      folds them into export policies before printing. Any left in the IR
      are dropped with a [#] comment marker. *)

val print : Policy.Config_ir.t -> string
