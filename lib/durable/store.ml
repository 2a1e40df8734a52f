(* The single checksummed append-only store. Raw Unix file descriptors
   rather than out_channels: fault injection and rollback need to know
   exactly which bytes reached the file, and an out_channel's buffer
   would put a second, invisible tearing point between us and the disk. *)

type t = {
  path : string;
  fd : Unix.file_descr;
  m : Mutex.t;
  mutable closed : bool;
}

let frame payload =
  Printf.sprintf "%08x %08x %s\n" (String.length payload)
    (Crc32.digest payload) payload

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let write_exactly fd bytes off len =
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write fd bytes (off + !written) (len - !written)
  done

let corrupt_counter = ref 0
let counter_m = Mutex.create ()

let corrupt_seen () =
  Mutex.lock counter_m;
  let v = !corrupt_counter in
  Mutex.unlock counter_m;
  v

let note_corrupt n =
  if n > 0 then begin
    Mutex.lock counter_m;
    corrupt_counter := !corrupt_counter + n;
    Mutex.unlock counter_m
  end

let open_ ?(truncate = false) path =
  let flags =
    [ Unix.O_RDWR; Unix.O_CREAT; (if truncate then Unix.O_TRUNC else Unix.O_APPEND) ]
  in
  let fd = Unix.openfile path flags 0o644 in
  { path; fd; m = Mutex.create (); closed = false }

(* Seal a torn tail and return the end-of-file offset. A writer that died
   mid-record, or a silent torn write on this very handle, leaves a line
   with no newline, and a frame landing right after it would merge both
   into one corrupt line — losing a good record to an old fault. The file
   is asked, not the fault layer: a torn write was reported as a success.
   The seal is " \n": the space keeps a complete frame that only lost its
   newline corrupt (its length no longer matches), so sealing never turns
   a torn line into a record, while a legacy bare-JSON tail still parses.
   (A plain repair, not a journaled write: it is not routed through the
   fault layer, so recovery runs converge instead of re-tearing.) *)
let seal fd =
  let size = Unix.lseek fd 0 Unix.SEEK_END in
  if size = 0 then 0
  else begin
    ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
    let last = Bytes.create 1 in
    if Unix.read fd last 0 1 = 1 && Bytes.get last 0 <> '\n' then begin
      write_exactly fd (Bytes.of_string " \n") 0 2;
      size + 2
    end
    else size
  end

let append t json =
  let payload = Netcore.Json.to_string json in
  let line = Bytes.of_string (frame payload) in
  let len = Bytes.length line in
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      if t.closed then invalid_arg "Store.append: store is closed";
      let offset = seal t.fd in
      (* A detected failure rolls the file back to the pre-append length:
         short writes and I/O errors must not leave a torn line behind
         when the caller is being told about them anyway. (Torn writes
         and crashes do leave one — that is their point.) *)
      let rollback () =
        try Unix.ftruncate t.fd offset with Unix.Unix_error _ -> ()
      in
      match Diskchaos.write_fate ~path:t.path ~len with
      | Diskchaos.Write_error _ -> false
      | Diskchaos.Write_short k ->
          if k > 0 then write_exactly t.fd line 0 k;
          rollback ();
          false
      | Diskchaos.Write_crash k ->
          if k > 0 then write_exactly t.fd line 0 k;
          raise (Diskchaos.Crashed ("write " ^ t.path))
      | (Diskchaos.Write_all | Diskchaos.Write_torn _) as fate ->
          (match fate with
          | Diskchaos.Write_torn k -> if k > 0 then write_exactly t.fd line 0 k
          | _ -> write_exactly t.fd line 0 len);
          (match Diskchaos.fsync_fate ~path:t.path with
          | Diskchaos.Fsync_crash ->
              raise (Diskchaos.Crashed ("fsync " ^ t.path))
          | Diskchaos.Fsync_error ->
              (* The barrier failed: the bytes may or may not be durable.
                 Keep them (rollback after a failed fsync is guesswork) but
                 report the record as not journaled; if it did survive, the
                 re-run's line is a duplicate that replay dedup absorbs. *)
              false
          | Diskchaos.Fsync_ok ->
              Unix.fsync t.fd;
              (* A torn write "succeeded" as far as this process can tell:
                 report true and let the CRC frame catch it at replay. *)
              true))

let close t =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Unix.close t.fd
      end)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type read_stats = { lines : int; ok : int; corrupt : int; legacy : int }

let is_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false

let hex_field line off =
  let v = ref 0 in
  for i = off to off + 7 do
    v :=
      (!v * 16)
      +
      match line.[i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | c -> Char.code c - Char.code 'a' + 10
  done;
  !v

(* A line is frame-shaped when the 18-byte header scans; a frame-shaped
   line that fails length/CRC/JSON is corrupt — it is never retried as
   bare JSON (a bare-JSON payload starts with a JSON token, not eight hex
   digits, so the two shapes cannot collide). *)
let frame_shaped line =
  String.length line >= 18
  && line.[8] = ' '
  && line.[17] = ' '
  &&
  let ok = ref true in
  for i = 0 to 7 do
    if not (is_hex line.[i] && is_hex line.[i + 9]) then ok := false
  done;
  !ok

let decode_line line =
  if String.trim line = "" then `Blank
  else if frame_shaped line then begin
    let len = hex_field line 0 in
    let crc = hex_field line 9 in
    let payload = String.sub line 18 (String.length line - 18) in
    if String.length payload <> len then `Corrupt
    else if Crc32.digest payload <> crc then `Corrupt
    else
      match Netcore.Json.of_string payload with
      | Ok j -> `Ok j
      | Error _ -> `Corrupt
  end
  else
    (* Every pre-framing surface wrote one JSON *object* per line, so the
       legacy fallback accepts nothing else: a truncated or mangled frame
       whose tail happens to scan as a bare JSON scalar (e.g. the leading
       "0000001" of a torn length field) must read as corruption, not as a
       phantom record. *)
    match Netcore.Json.of_string line with
    | Ok (Netcore.Json.Obj _ as j) -> `Legacy j
    | Ok _ | Error _ -> `Corrupt

let read path =
  if not (Sys.file_exists path) then
    ([], { lines = 0; ok = 0; corrupt = 0; legacy = 0 })
  else begin
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let records = ref [] in
    let stats = ref { lines = 0; ok = 0; corrupt = 0; legacy = 0 } in
    (* The text after the last newline is an unterminated tail. Every frame
       ends in a newline, so a tail that decodes as a frame is a write that
       died one byte short: torn, not a record. *)
    let lines = String.split_on_char '\n' text in
    let last = List.length lines - 1 in
    List.iteri
      (fun i line ->
        match
          match decode_line line with `Ok _ when i = last -> `Corrupt | v -> v
        with
        | `Blank -> ()
        | `Ok j ->
            records := j :: !records;
            stats := { !stats with lines = !stats.lines + 1; ok = !stats.ok + 1 }
        | `Legacy j ->
            records := j :: !records;
            stats :=
              { !stats with lines = !stats.lines + 1; legacy = !stats.legacy + 1 }
        | `Corrupt ->
            stats :=
              {
                !stats with
                lines = !stats.lines + 1;
                corrupt = !stats.corrupt + 1;
              })
      lines;
    note_corrupt !stats.corrupt;
    (List.rev !records, !stats)
  end

(* ------------------------------------------------------------------ *)
(* Atomic replacement                                                  *)
(* ------------------------------------------------------------------ *)

let read_back tmp =
  try
    let ic = open_in_bin tmp in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Some s
  with Sys_error _ -> None

let remove_noerr tmp = try Sys.remove tmp with Sys_error _ -> ()

(* Temp + fsync + read-back verify + rename. The read-back is what turns
   a silent torn write into a detected failure here: record streams have
   the CRC frame to catch tearing at replay, but a raw artifact (a
   promoted corpus seed) has no frame, so the writer itself must look. *)
let atomic_replace ~tmp ~path content =
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let bytes = Bytes.of_string content in
  let len = Bytes.length bytes in
  let write_ok =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match Diskchaos.write_fate ~path:tmp ~len with
        | Diskchaos.Write_error _ -> false
        | Diskchaos.Write_short k ->
            if k > 0 then write_exactly fd bytes 0 k;
            false
        | Diskchaos.Write_crash k ->
            if k > 0 then write_exactly fd bytes 0 k;
            raise (Diskchaos.Crashed ("write " ^ tmp))
        | (Diskchaos.Write_all | Diskchaos.Write_torn _) as fate -> (
            (match fate with
            | Diskchaos.Write_torn k -> if k > 0 then write_exactly fd bytes 0 k
            | _ -> write_exactly fd bytes 0 len);
            match Diskchaos.fsync_fate ~path:tmp with
            | Diskchaos.Fsync_crash -> raise (Diskchaos.Crashed ("fsync " ^ tmp))
            | Diskchaos.Fsync_error -> false
            | Diskchaos.Fsync_ok ->
                Unix.fsync fd;
                true))
  in
  if not write_ok then begin
    remove_noerr tmp;
    false
  end
  else if read_back tmp <> Some content then begin
    (* A torn write slipped past the claimed success: caught here, before
       the rename could install a truncated artifact. *)
    remove_noerr tmp;
    false
  end
  else
    match Diskchaos.rename_fate ~path with
    | `Crash -> raise (Diskchaos.Crashed ("rename " ^ tmp))
    | `Proceed ->
        Sys.rename tmp path;
        true

let rewrite path records =
  let content =
    String.concat ""
      (List.map (fun j -> frame (Netcore.Json.to_string j)) records)
  in
  atomic_replace ~tmp:(path ^ ".compact.tmp") ~path content

let write_atomic path content = atomic_replace ~tmp:(path ^ ".tmp") ~path content
