type 'b outcome =
  | Completed of 'b
  | Abandoned of { attempts : int; reason : string }

let completed = function Completed v -> Some v | Abandoned _ -> None
let abandoned = function Completed _ -> false | Abandoned _ -> true

type policy = { max_attempts : int }

let default_policy = { max_attempts = 4 }

type loss = At_dispatch | In_flight
type plan = index:int -> attempt:int -> loss option

(* Process-wide counters: one immutable record replaced whole under one
   lock (the Resilience.Stats idiom), aggregated across every supervised
   map and every worker domain. They feed the bench report and never
   influence control flow. *)

type counters = {
  dispatched : int;
  completed : int;
  losses : int;
  requeues : int;
  task_exceptions : int;
  abandoned : int;
}

let zero =
  {
    dispatched = 0;
    completed = 0;
    losses = 0;
    requeues = 0;
    task_exceptions = 0;
    abandoned = 0;
  }

let lock = Mutex.create ()
let counters = ref zero
let stats () = Mutex.protect lock (fun () -> !counters)
let bump f = Mutex.protect lock (fun () -> counters := f !counters)

let diff a b =
  {
    dispatched = b.dispatched - a.dispatched;
    completed = b.completed - a.completed;
    losses = b.losses - a.losses;
    requeues = b.requeues - a.requeues;
    task_exceptions = b.task_exceptions - a.task_exceptions;
    abandoned = b.abandoned - a.abandoned;
  }

(* ------------------------------------------------------------------ *)
(* The supervision loop                                                 *)
(* ------------------------------------------------------------------ *)

(* One task under the exception/chaos boundary. Attempts are numbered from
   1. A drawn worker-domain loss burns the attempt: [At_dispatch] losses
   die before the task body runs, [In_flight] losses run the body to
   completion (side effects and all) and lose only the result with the
   domain. Either way — when a pool is present — the loss actually kills
   the worker via [Pool.lose_current_worker]; the retry is what the
   replacement domain picks up. A task exception burns the attempt too.
   The task is re-dispatched until the budget is spent, then recorded as
   [Abandoned] instead of re-raised. *)
let run_one ?pool ?plan ?(policy = default_policy) ~index f =
  let budget = Stdlib.max 1 policy.max_attempts in
  let rec go attempt =
    bump (fun c -> { c with dispatched = c.dispatched + 1 });
    let lost = match plan with Some p -> p ~index ~attempt | None -> None in
    match lost with
    | Some mode ->
      (* An in-flight loss means the work happened but the result never
         made it back: run the body for its side effects and discard the
         value — and a body that raises changes nothing, the domain was
         dying anyway. *)
      (if mode = In_flight then try ignore (f ()) with _ -> ());
      bump (fun c -> { c with losses = c.losses + 1 });
      (match pool with Some p -> Pool.lose_current_worker p | None -> ());
      if attempt >= budget then begin
        bump (fun c -> { c with abandoned = c.abandoned + 1 });
        Abandoned
          {
            attempts = attempt;
            reason =
              Printf.sprintf "worker domain lost on every dispatch (%d attempts)"
                attempt;
          }
      end
      else begin
        bump (fun c -> { c with requeues = c.requeues + 1 });
        go (attempt + 1)
      end
    | None -> (
      match f () with
      | v ->
          bump (fun c -> { c with completed = c.completed + 1 });
          Completed v
      | exception e ->
          bump (fun c -> { c with task_exceptions = c.task_exceptions + 1 });
          if attempt >= budget then begin
            bump (fun c -> { c with abandoned = c.abandoned + 1 });
            Abandoned { attempts = attempt; reason = Printexc.to_string e }
          end
          else begin
            bump (fun c -> { c with requeues = c.requeues + 1 });
            go (attempt + 1)
          end)
  in
  go 1

let map ?pool ?plan ?policy ?index_of f xs =
  let task i x =
    let index = match index_of with Some g -> g x | None -> i in
    run_one ?pool ?plan ?policy ~index (fun () -> f x)
  in
  let indexed = List.mapi (fun i x -> (i, x)) xs in
  match pool with
  | Some p -> Pool.map p (fun (i, x) -> task i x) indexed
  | None -> Pool.map_seq (fun (i, x) -> task i x) indexed
