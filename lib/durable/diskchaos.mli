(** Seeded, deterministic disk-fault injection — the {!Chaos} discipline
    applied to the filesystem instead of the verifiers.

    A configuration is a set of per-I/O fault rates plus a seed. Once
    {!install}ed it is consulted by {!Store} at every write, fsync and
    rename; each decision is drawn from a splitmix64 stream keyed on
    [(seed, salt, path)] — so a faulty run is exactly reproducible from
    its configuration, and two stores (or the write vs. fsync streams of
    one store) never share a stream. A process-wide operation counter
    drives crash-after-N schedules: the bench gate replays the same
    scripted run once per write point, killing it at each in turn.

    Fault model, per operation:
    - {b short write}: only a prefix of the buffer is written and the
      caller {e sees the failure} — a careful store rolls the file back
      and reports the record as not journaled.
    - {b torn write}: only a prefix is written but the kernel {e claims
      success} — undetectable at write time; this is what the CRC frame
      exists to catch at replay.
    - {b EIO / ENOSPC}: the write fails outright with an I/O or
      disk-full error.
    - {b fsync failure}: the bytes may be in the page cache but the
      durability barrier fails; the record must not be counted as
      journaled (a later resume re-runs it — replay dedup makes the
      possible duplicate line harmless).
    - {b crash}: after the configured number of counted operations the
      process "dies" — {!Crashed} is raised through the store, a write
      in progress is torn at a drawn offset, and the CLI exits like a
      killed process would.

    With every rate 0 and no crash schedule, an installed configuration
    only counts operations (how the gate measures a run's write-point
    count); with nothing installed the fast path returns [Write_all]
    without counting. *)

type config = {
  seed : int;
  short_rate : float;  (** Per-write probability of a detected short write. *)
  torn_rate : float;  (** Per-write probability of a silent torn write. *)
  io_error_rate : float;  (** Per-write probability of [EIO]. *)
  enospc_rate : float;  (** Per-write probability of [ENOSPC]. *)
  fsync_fail_rate : float;  (** Per-fsync probability of a failed barrier. *)
  crash_after : int option;
      (** [Some n]: the first [n] counted operations succeed (modulo the
          rates above); the next one crashes the process. *)
}

exception Crashed of string
(** The simulated process death, carrying the operation that "killed" us.
    Never caught inside the store — it must propagate like a real crash
    (the CLI maps it to exit code 3, the kill/resume convention). *)

val make :
  ?short_rate:float ->
  ?torn_rate:float ->
  ?io_error_rate:float ->
  ?enospc_rate:float ->
  ?fsync_fail_rate:float ->
  ?crash_after:int ->
  seed:int ->
  unit ->
  config
(** Rates default to 0 and are clamped to [0, 1]; [crash_after] is clamped
    to [>= 0] ([Some 0] crashes the very first operation). *)

val is_none : config -> bool
(** Every rate is 0 and there is no crash schedule. *)

val describe : config -> string
(** E.g. ["torn 0.30, fsync-fail 0.05 (seed 7)"]; ["no disk faults"] when
    {!is_none}. *)

val install : config -> unit
(** Arm the configuration process-wide: resets the operation counter, the
    fault counters and every per-path stream, so two identical runs under
    the same configuration draw identical fates. Installing a
    configuration that {!is_none} is allowed and useful — it counts
    operations without injecting. *)

val uninstall : unit -> unit
(** Disarm. Fault counters survive so a post-run report can still read
    {!stats}; the next {!install} resets them. *)

type write_fate =
  | Write_all  (** The write succeeds in full. *)
  | Write_short of int  (** Only this many bytes land; caller sees failure. *)
  | Write_torn of int  (** Only this many bytes land; caller sees success. *)
  | Write_error of Unix.error  (** [EIO] or [ENOSPC]; nothing lands. *)
  | Write_crash of int  (** This many bytes land, then raise {!Crashed}. *)

type fsync_fate = Fsync_ok | Fsync_error | Fsync_crash

val write_fate : path:string -> len:int -> write_fate
(** Draw the fate of an [len]-byte write to [path]. Counts one operation
    when a configuration is installed; [Write_all] (uncounted) otherwise.
    Partial-write offsets are drawn uniform in [0, len). *)

val fsync_fate : path:string -> fsync_fate
(** Draw the fate of a durability barrier on [path]. *)

val rename_fate : path:string -> [ `Proceed | `Crash ]
(** Draw the fate of an atomic rename {e onto} [path]. [`Crash] strikes
    before the rename happens — the interesting half of the window, since
    a crash after an atomic rename is indistinguishable from a clean
    finish. *)

type stats = {
  ops : int;  (** Counted write/fsync/rename points since {!install}. *)
  shorts : int;
  torn : int;
  io_errors : int;
  enospc : int;
  fsync_failures : int;
  crashes : int;
}

val stats : unit -> stats
(** Injected-fault tallies since the last {!install}. *)
