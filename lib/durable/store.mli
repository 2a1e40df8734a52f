(** The one checksummed append-only record store every persistence surface
    rides on.

    Before this module the repo had five independently-written durability
    paths — checkpoint journals, the trust ledger, crash triage, corpus
    promotion, admission-cap files — each with its own (subtly different)
    crash story. [Store] implements the discipline once:

    - {b Framing.} One record per line: ["%08x %08x %s\n"] — payload byte
      length, IEEE CRC-32 of the payload, then the compact JSON payload.
      A torn line, a flipped bit, or two lines merged by a lost newline
      all fail the frame check and are {e skipped and counted}, never
      raised and never silently decoded. A frame is a record only with its
      newline: an unterminated tail is a torn line, even when every other
      byte of the frame made it to disk.
    - {b Durability.} {!append} writes the whole frame with raw
      [Unix.write] and [fsync]s before returning, under a mutex — a
      record is durable before the caller may treat the run it describes
      as completed. Detected write failures roll the file back to the
      pre-append length; fsync failures leave the bytes but report the
      record as not journaled (a resume re-runs it; replay dedup absorbs
      the possible duplicate).
    - {b Atomic replace.} {!write_atomic} and {!rewrite} build the new
      content in a sibling temp file, fsync it, verify it by read-back,
      and [rename] over the target — a crash at any point leaves either
      the old file or the new one, plus at worst an ignorable [*.tmp].
    - {b Total reads.} {!read} never raises on any byte string. Lines
      written by an older revision (bare JSON objects, no header) still
      load and are counted as [legacy]; a bare line that is not a JSON
      object is corruption — a torn frame header can scan as a JSON
      scalar, and must not come back as a phantom record.

    Every write, fsync and rename first consults {!Diskchaos}, so the
    whole crash-recovery story is drilled by seeded fault injection (the
    D1 gate) rather than asserted. *)

type t
(** An open store handle (one writer; appends are mutex-serialised). *)

val open_ : ?truncate:bool -> string -> t
(** Open [path] for appending, creating it if needed; [~truncate:true]
    discards existing contents. *)

val append : t -> Netcore.Json.t -> bool
(** Frame, write and fsync one record. The write is preceded by a {e seal}:
    when the file does not end in a newline (a writer died mid-record, or
    an earlier append on this handle was silently torn), [" \n"] is
    written first, so the torn tail is isolated on its own line and the
    new record cannot merge into it. The seal leaves the tail corrupt,
    never a record: the space breaks a frame that lost only its newline.
    [true] when the record is durably on disk; [false] when an injected
    fault prevented that (the caller must not count the record as
    journaled — on the fault-free path the result is always [true]).
    Thread-safe.
    @raise Diskchaos.Crashed under an injected crash schedule.
    @raise Invalid_argument after {!close}. *)

val close : t -> unit
(** Idempotent. *)

type read_stats = {
  lines : int;  (** Non-blank lines seen. *)
  ok : int;  (** Well-framed, CRC-verified records. *)
  corrupt : int;  (** Lines that failed the frame/CRC/JSON check. *)
  legacy : int;  (** Pre-framing bare-JSON lines, decoded and kept. *)
}

val read : string -> Netcore.Json.t list * read_stats
(** Decode every surviving record in file order ([legacy] lines
    included). Total: any byte string yields a result — corruption is
    counted, never raised. A missing file is an empty store. *)

val corrupt_seen : unit -> int
(** Process-wide count of corrupt records skipped by {!read} (the
    {!Stats}-idiom counter the bench and CLI report). *)

val frame : string -> string
(** The framed line (newline included) for a payload — exposed so tests
    and the corruption gate can build and mutate wire bytes directly. *)

val decode_line :
  string -> [ `Ok of Netcore.Json.t | `Legacy of Netcore.Json.t | `Corrupt | `Blank ]
(** Classify one newline-terminated line (newline stripped) exactly as
    {!read} does; {!read} also counts an unterminated tail that would be
    [`Ok] as [`Corrupt]. *)

val rewrite : string -> Netcore.Json.t list -> bool
(** Atomically replace [path]'s contents with the given records, framed —
    the compaction primitive. [false] when an injected fault aborted the
    replacement; the original file is then untouched.
    @raise Diskchaos.Crashed under an injected crash schedule. *)

val write_atomic : string -> string -> bool
(** Atomically replace [path] with raw (unframed) [content] — for
    artifacts that are not record streams, e.g. promoted corpus seeds.
    Write to [path ^ ".tmp"], fsync, verify by read-back, rename. [false]
    on an injected failure (target untouched).
    @raise Diskchaos.Crashed under an injected crash schedule. *)
