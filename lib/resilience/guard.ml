(* The exception firewall: one total boundary between the pipeline and any
   OCaml code that may raise. *)

type crash = {
  stage : string;
  constructor : string;
  message : string;
  backtrace_digest : string;
  fingerprint : string;
}

(* Backtrace recording must be on for the digest to carry information; the
   runtime flag only affects exception-raise bookkeeping, never output. *)
let () = Printexc.record_backtrace true

let crash_to_string c =
  Printf.sprintf "%s raised %s (%s) [bt %s, input %s]" c.stage c.constructor
    c.message c.backtrace_digest c.fingerprint

(* Global crash registry: (stage, constructor) -> count.  Mutex-guarded so
   pooled domains can record concurrently; read out for report footers. *)
let registry : (string * string, int) Hashtbl.t = Hashtbl.create 16
let registry_mutex = Mutex.create ()

let record c =
  Mutex.lock registry_mutex;
  let key = (c.stage, c.constructor) in
  let n = try Hashtbl.find registry key with Not_found -> 0 in
  Hashtbl.replace registry key (n + 1);
  Mutex.unlock registry_mutex

let crashes () =
  Mutex.lock registry_mutex;
  let rows = Hashtbl.fold (fun (s, c) n acc -> (s, c, n) :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.sort compare rows

let total () = List.fold_left (fun acc (_, _, n) -> acc + n) 0 (crashes ())

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.reset registry;
  Mutex.unlock registry_mutex

let short_digest s = String.sub (Digest.to_hex (Digest.string s)) 0 8
let fingerprint_string s = short_digest s
let fingerprint_value v = Printf.sprintf "%08x" (Hashtbl.hash v)

let constructor_of exn =
  match exn with
  | Failure _ -> "Failure"
  | Invalid_argument _ -> "Invalid_argument"
  | Not_found -> "Not_found"
  | _ -> (
      try Printexc.exn_slot_name exn
      with _ -> (
        (* exn_slot_name can itself misbehave on exotic extension
           constructors; fall back to the printed form's head word. *)
        match String.split_on_char ' ' (Printexc.to_string exn) with
        | head :: _ -> head
        | [] -> "<unknown>"))

let run ?fingerprint ~label f =
  match f () with
  | v -> Ok v
  | exception exn ->
      let raw_backtrace = Printexc.get_backtrace () in
      let c =
        {
          stage = label;
          constructor = constructor_of exn;
          message = Printexc.to_string exn;
          backtrace_digest = short_digest raw_backtrace;
          fingerprint =
            (match fingerprint with Some fp -> fp | None -> "-");
        }
      in
      record c;
      Error c

(* Thread-based deadline, safe in the multi-threaded daemon. OCaml threads
   cannot be killed, so an expired thunk is *abandoned*, not stopped: the
   caller gets its timeout crash immediately while the worker thread runs
   to completion in the background — which is why resources the thunk
   holds (an admission slot, say) must be released in [on_settled], not on
   the caller's return path.
   The caller sleeps in [select] on a per-call pipe that the worker writes
   one byte to once its result is stored, so it wakes on completion.
   Whether the caller still listens is decided under the cell mutex, and
   that one decision also picks who runs [on_settled], exactly once: the
   caller, before it returns an in-time result, or the worker, once the
   call was abandoned. The worker closes the write end under the mutex and
   the caller closes the read end before settling, so both are closed
   whoever settles. *)
let run_deadline ~deadline_ms ?fingerprint ?(on_settled = fun () -> ()) ~label f =
  let cell_m = Mutex.create () in
  let cell = ref None in
  let abandoned = ref false in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let worker () =
    let r = run ?fingerprint ~label f in
    Mutex.lock cell_m;
    cell := Some r;
    let settles_here = !abandoned in
    if not settles_here then ignore (Unix.write_substring wr "." 0 1 : int);
    Unix.close wr;
    Mutex.unlock cell_m;
    if settles_here then on_settled ()
  in
  ignore (Thread.create worker () : Thread.t);
  let deadline =
    Unix.gettimeofday () +. (float_of_int (max 1 deadline_ms) /. 1000.)
  in
  let rec wait () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0. then
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> wait ()
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  Mutex.lock cell_m;
  let r = !cell in
  if Option.is_none r then abandoned := true;
  Mutex.unlock cell_m;
  Unix.close rd;
  match r with
  | Some r ->
      on_settled ();
      r
  | None ->
      let c =
        {
          stage = label;
          constructor = "Deadline_exceeded";
          message = Printf.sprintf "deadline of %d ms exceeded" deadline_ms;
          backtrace_digest = "-";
          fingerprint = (match fingerprint with Some fp -> fp | None -> "-");
        }
      in
      record c;
      Error c
