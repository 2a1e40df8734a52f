(** IEEE CRC-32 (the zlib/PNG polynomial), table-driven.

    The {!Store} frame integrity check. CRC-32 detects every single-bit
    and single-byte change and all burst errors up to 32 bits — exactly
    the torn-write and bit-flip corruption the disk-chaos layer injects —
    at a per-record cost that is noise next to the fsync that follows. *)

val digest : string -> int
(** CRC-32 of the whole string, in [0, 0xFFFFFFFF]. *)
