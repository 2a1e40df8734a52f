(** The exception firewall.

    The paper's premise is that the LLM emits arbitrary, frequently broken
    config text; every parser, printer, differ and sim the VPP loop consults
    must therefore be {e total} — malformed input yields structured findings
    or a structured {!crash}, never a process abort.  [Guard.run] is the one
    boundary enforcing that: any exception escaping the thunk becomes a
    {!crash} record (stage label, exception constructor, backtrace digest,
    input fingerprint), is counted in a global registry, and is returned as
    [Error] for the caller to surface — in the driver it becomes a
    {!Verifier.failure} and ultimately a humanized correction prompt. *)

type crash = {
  stage : string;  (** Which pipeline stage raised (e.g. ["cisco-parse"]). *)
  constructor : string;  (** Exception constructor name ([Failure], ...). *)
  message : string;  (** [Printexc.to_string] of the exception. *)
  backtrace_digest : string;  (** Short digest of the raw backtrace. *)
  fingerprint : string;  (** Short fingerprint of the offending input. *)
}

val run :
  ?fingerprint:string ->
  label:string ->
  (unit -> 'a) ->
  ('a, crash) result
(** [run ~label f] is [Ok (f ())] unless [f] raises, in which case the
    exception is converted to a [crash], recorded in the registry, and
    returned as [Error]. It sets no wall-clock limit: the driver loop's
    watchdog is the tick-based one in {!Runtime}, and {!run_deadline} bounds
    a call in the daemon. [?fingerprint] identifies the offending input (default ["-"]). *)

val run_deadline :
  deadline_ms:int ->
  ?fingerprint:string ->
  ?on_settled:(unit -> unit) ->
  label:string ->
  (unit -> 'a) ->
  ('a, crash) result
(** Like {!run}, but bounded by a wall-clock deadline and safe in a
    multi-threaded process (the daemon): the thunk runs on a fresh thread
    while the caller waits on a per-call pipe, so it returns as soon as the
    thunk finishes (both pipe ends are closed whichever way the call
    ends). Past the deadline
    the caller gets [Error] with constructor ["Deadline_exceeded"]
    (recorded in the registry like any crash) — but since OCaml threads
    cannot be killed, the thunk is {e abandoned}, not stopped: it keeps
    running. [on_settled] fires exactly once either way: on the caller's
    thread before an in-time result is returned, so its effect is visible
    to whatever the caller does next; or, for an abandoned thunk, on the
    worker thread when the thunk actually finishes. Release any resource
    the job holds — e.g. its {!Admission} ticket — in [on_settled], never
    on the caller's return path, or an abandoned job would leak its
    slot. *)

val crash_to_string : crash -> string

val fingerprint_string : string -> string
(** Short (8 hex chars) content digest of an input string. *)

val fingerprint_value : 'a -> string
(** Short structural-hash fingerprint for non-string inputs. *)

val crashes : unit -> (string * string * int) list
(** Registry contents as sorted [(stage, constructor, count)] rows. *)

val total : unit -> int
(** Sum of all registry counts. *)

val reset : unit -> unit
