(* Clocks, counters and order statistics shared by every workload. *)

let now_ns () = Monotonic_clock.now ()
let span_s t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9
let seconds_since t0 = span_s t0 (now_ns ())

(* OCaml words allocated by this domain so far (minor + direct major,
   without double-counting promotions). *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [q]-quantile (0..1) of an unsorted sample, linear between closest ranks. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method): the quartiles the benchmark's spread rule is defined on. *)
let quartiles xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then (0., 0., 0.)
  else if n = 1 then (s.(0), s.(0), s.(0))
  else
    let cut i =
      let m = (n + 1) * i in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = m - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

(* Inter-quartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2

(* A growable sample. *)
module Sample = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (max 256 (2 * t.len)) x in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* {2 Quiet windows}

   On the 2-core machine this benchmark was written on, other tenants slow
   this process in episodes of several seconds: a translate run's loops/s
   swing between about 37 and 52 from one second to the next, and CPU time
   per loop rises with them, so the slowdown is not the program's. Runs
   therefore split their units into one-second windows by start time and
   report timings over the quieter half of the windows. The caller scores
   each window with a measure the units' content barely moves (time per
   allocated word in process, mean request latency under serve's fixed
   job mix). *)

let window_s = 1.
let window_of start_s = int_of_float (start_s /. window_s)

(* [scores.(i)] is window [i]'s score, [None] when it holds no unit. The
   result marks the half of the scored windows (rounded up) with the lowest
   scores. *)
let quieter_half scores =
  let scored =
    List.filter_map
      (fun (i, s) -> Option.map (fun s -> (s, i)) s)
      (List.mapi (fun i s -> (i, s)) (Array.to_list scores))
  in
  let keep = Array.make (Array.length scores) false in
  List.iteri
    (fun rank (_, i) -> if rank < (List.length scored + 1) / 2 then keep.(i) <- true)
    (List.sort compare scored);
  keep

(* /proc readers for the measured process (ours, or the serve daemon). *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* VmHWM, the resident-set high-water mark, in MB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* utime + stime of another process, in seconds. Linux reports both in
   clock ticks of USER_HZ, which is 100 on every Linux ABI. *)
let process_cpu_seconds pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* The command name (field 2) may hold spaces; fields resume after ')'. *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* [rest] starts at field 3 (state); utime is field 14, stime 15. *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.
