(** The unified verifier interface.

    Every checker the VPP loop calls — the Batfish-style syntax check, the
    Campion-style differ, the topology verifier, Search Route Policies, and
    the whole-network BGP simulation — is wrapped as a [('input, 'output) t]
    behind one {!run} entry point returning [(findings, failure) result].

    In the paper's deployment these are external Java/Scala tools that
    crash, time out and flake; here the wrapped [oracle] is a pure OCaml
    function, and {!Chaos} can install a seeded fault schedule on top of it.
    Without an installed schedule, {!run} is exactly [Ok (oracle input)] —
    the resilience machinery is pay-for-what-you-use. *)

type kind =
  | Parse_check  (** {!Batfish.Parse_check} (via {!Exec.Memo}). *)
  | Campion  (** {!Campion.Differ.check}. *)
  | Topology  (** {!Topoverify.Verifier.check}. *)
  | Route_policies  (** {!Exec.Memo.route_policies_of_draft}. *)
  | Bgp_sim  (** The global no-transit check (simulation and/or proof). *)

val all_kinds : kind list

val kind_index : kind -> int
(** Dense index, [0 .. length all_kinds - 1]. *)

val kind_name : kind -> string

val kind_of_name : string -> kind option
(** Inverse of {!kind_name} (CLI [--collude] parsing, ledger decode). *)

type failure =
  | Crashed of { down_ticks : int }
      (** The verifier process died; it stays down for [down_ticks]. *)
  | Timed_out of { ticks : int }
      (** The call burned [ticks] waiting before giving up. *)
  | Flaked  (** A transient error; an immediate retry may succeed. *)
  | Truncated
      (** The response arrived garbled/truncated and was discarded — a
          truncated findings list must never be mistaken for a clean pass. *)
  | Faulted of Guard.crash
      (** A {e real} exception escaped the oracle and was converted by the
          {!Guard} firewall — unlike the injected variants above, this one
          reports an actual pipeline bug or adversarial input. *)

val failure_to_string : failure -> string

type ('i, 'o) t

val wrap : ?dirty:('o -> bool) -> kind -> ('i -> 'o) -> ('i, 'o) t
(** [dirty] classifies an output as carrying findings (default:
    [fun _ -> false]). The trust layer uses it to decide which answers
    warrant a cross-check — a finding, or a clean pass right after a dirty
    one, is suspicious. *)

val kind : ('i, 'o) t -> kind

val dirty : ('i, 'o) t -> 'o -> bool
(** Does this output carry findings, per the predicate given to {!wrap}? *)

val run : ('i, 'o) t -> 'i -> ('o, failure) result
(** The one entry point. [run_oracle t input] when no fault schedule is
    installed; otherwise the schedule decides (with {!run_oracle} as its
    success path, so the firewall also backs chaos runs). *)

val run_oracle : ('i, 'o) t -> 'i -> ('o, failure) result
(** The oracle behind the {!Guard} firewall: [Ok (oracle input)] unless the
    oracle raises, in which case the escape is [Error (Faulted crash)]. *)

val oracle : ('i, 'o) t -> 'i -> 'o
(** The unperturbed checker — what the simulated human consults when the
    automated path has degraded. *)

val install : ('i, 'o) t -> ('i -> ('o, failure) result) -> unit
(** Install a fault schedule (used by {!Chaos}). *)

val runner : ('i, 'o) t -> 'i -> ('o, failure) result
(** The effective runner at the moment of the call — what {!run} would
    invoke right now ({!run_oracle} when no schedule is installed). Lets an
    outer wrapper (the Byzantine-verifier adversary) capture and compose
    with an already-armed fault schedule instead of replacing it. *)

(** {2 The cross-check oracle as a service}

    A trust cross-check consults a replaceable oracle {e service}, so the
    collusion adversary can {!install_oracle} a compromised one. The
    hand-run check that {!Runtime.check} falls back on always bypasses it:
    the simulated human's own run cannot be compromised, only budgeted. *)

val install_oracle : ('i, 'o) t -> ('i -> ('o, Guard.crash) result) -> unit
(** Replace the cross-check oracle service (the collusion adversary). *)

val oracle_runner : ('i, 'o) t -> 'i -> ('o, Guard.crash) result
(** The effective cross-check oracle at the moment of the call: the
    installed service, or the pristine oracle behind the {!Guard} firewall,
    labelled ["<kind>/hand-check"], when none is installed. Outer wrappers
    compose with it. *)
