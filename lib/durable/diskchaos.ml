(* Seeded disk-fault injection. One global (config, counters, streams)
   cell under a mutex: the store consults it at every write/fsync/rename,
   and the crash-after-N schedule needs a process-wide operation counter
   anyway (it models the whole process dying, not one file). *)

type config = {
  seed : int;
  short_rate : float;
  torn_rate : float;
  io_error_rate : float;
  enospc_rate : float;
  fsync_fail_rate : float;
  crash_after : int option;
}

exception Crashed of string

let clamp r = if r < 0. then 0. else if r > 1. then 1. else r

let none =
  {
    seed = 0;
    short_rate = 0.;
    torn_rate = 0.;
    io_error_rate = 0.;
    enospc_rate = 0.;
    fsync_fail_rate = 0.;
    crash_after = None;
  }

let make ?(short_rate = 0.) ?(torn_rate = 0.) ?(io_error_rate = 0.)
    ?(enospc_rate = 0.) ?(fsync_fail_rate = 0.) ?crash_after ~seed () =
  {
    seed;
    short_rate = clamp short_rate;
    torn_rate = clamp torn_rate;
    io_error_rate = clamp io_error_rate;
    enospc_rate = clamp enospc_rate;
    fsync_fail_rate = clamp fsync_fail_rate;
    crash_after = Option.map (max 0) crash_after;
  }

let is_none c =
  c.short_rate = 0. && c.torn_rate = 0. && c.io_error_rate = 0.
  && c.enospc_rate = 0. && c.fsync_fail_rate = 0. && c.crash_after = None

let describe c =
  if is_none c then "no disk faults"
  else
    let rates =
      List.filter_map
        (fun (name, r) ->
          if r > 0. then Some (Printf.sprintf "%s %.2f" name r) else None)
        [
          ("short", c.short_rate);
          ("torn", c.torn_rate);
          ("io-error", c.io_error_rate);
          ("enospc", c.enospc_rate);
          ("fsync-fail", c.fsync_fail_rate);
        ]
      @
      match c.crash_after with
      | None -> []
      | Some n -> [ Printf.sprintf "crash-after %d" n ]
    in
    Printf.sprintf "%s (seed %d)" (String.concat ", " rates) c.seed

type write_fate =
  | Write_all
  | Write_short of int
  | Write_torn of int
  | Write_error of Unix.error
  | Write_crash of int

type fsync_fate = Fsync_ok | Fsync_error | Fsync_crash

type stats = {
  ops : int;
  shorts : int;
  torn : int;
  io_errors : int;
  enospc : int;
  fsync_failures : int;
  crashes : int;
}

let zero =
  {
    ops = 0;
    shorts = 0;
    torn = 0;
    io_errors = 0;
    enospc = 0;
    fsync_failures = 0;
    crashes = 0;
  }

let m = Mutex.create ()
let active : config option ref = ref None
let counters = ref zero

(* One splitmix64 stream per (salt, path): write fates, fsync fates and
   rename fates never share a stream, and neither do two stores — so the
   fate sequence a given file sees is independent of what any other file
   does, and a resumed run re-draws the same fates for the writes it
   re-issues. *)
let streams : (int * string, Netcore.Rng.t) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let install c =
  locked (fun () ->
      active := Some c;
      counters := zero;
      Hashtbl.reset streams)

let uninstall () =
  locked (fun () ->
      active := None;
      Hashtbl.reset streams)

let installed () = locked (fun () -> !active <> None)
let stats () = locked (fun () -> !counters)

(* FNV-1a over the path, folded with the seed and a distinct large odd
   multiplier per salt (the Chaos stream-seeding idiom). *)
let fnv1a s =
  (* The 64-bit FNV offset basis, truncated to OCaml's 63-bit int. *)
  let h = ref 0x4BF29CE484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001B3)
    s;
  !h

let stream c ~salt ~path =
  match Hashtbl.find_opt streams (salt, path) with
  | Some r -> r
  | None ->
      let r =
        Netcore.Rng.make
          (c.seed + ((salt + 1) * 7_368_787) + (fnv1a path land 0x3FFFFFFFFF))
      in
      Hashtbl.replace streams (salt, path) r;
      r

let count_op () =
  counters := { !counters with ops = !counters.ops + 1 };
  !counters.ops

let crashes_now () = counters := { !counters with crashes = !counters.crashes + 1 }

let crash_due c n =
  match c.crash_after with Some k -> n > k | None -> false

let write_fate ~path ~len =
  locked (fun () ->
      match !active with
      | None -> Write_all
      | Some c ->
          let n = count_op () in
          let r = stream c ~salt:1 ~path in
          let offset () = if len = 0 then 0 else Netcore.Rng.int r len in
          if crash_due c n then begin
            crashes_now ();
            Write_crash (offset ())
          end
          else
            (* One uniform draw decides the fate (cumulative thresholds),
               so arming an extra rate never perturbs which writes an
               already-armed rate strikes. *)
            let u = Netcore.Rng.float r in
            let t1 = c.io_error_rate in
            let t2 = t1 +. c.enospc_rate in
            let t3 = t2 +. c.torn_rate in
            let t4 = t3 +. c.short_rate in
            if u < t1 then begin
              counters := { !counters with io_errors = !counters.io_errors + 1 };
              Write_error Unix.EIO
            end
            else if u < t2 then begin
              counters := { !counters with enospc = !counters.enospc + 1 };
              Write_error Unix.ENOSPC
            end
            else if u < t3 then begin
              counters := { !counters with torn = !counters.torn + 1 };
              Write_torn (offset ())
            end
            else if u < t4 then begin
              counters := { !counters with shorts = !counters.shorts + 1 };
              Write_short (offset ())
            end
            else Write_all)

let fsync_fate ~path =
  locked (fun () ->
      match !active with
      | None -> Fsync_ok
      | Some c ->
          let n = count_op () in
          if crash_due c n then begin
            crashes_now ();
            Fsync_crash
          end
          else
            let r = stream c ~salt:2 ~path in
            if Netcore.Rng.bernoulli r c.fsync_fail_rate then begin
              counters :=
                { !counters with fsync_failures = !counters.fsync_failures + 1 };
              Fsync_error
            end
            else Fsync_ok)

let rename_fate ~path =
  ignore path;
  locked (fun () ->
      match !active with
      | None -> `Proceed
      | Some c ->
          let n = count_op () in
          if crash_due c n then begin
            crashes_now ();
            `Crash
          end
          else `Proceed)
