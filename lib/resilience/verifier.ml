type kind = Parse_check | Campion | Topology | Route_policies | Bgp_sim

let all_kinds = [ Parse_check; Campion; Topology; Route_policies; Bgp_sim ]

let kind_index = function
  | Parse_check -> 0
  | Campion -> 1
  | Topology -> 2
  | Route_policies -> 3
  | Bgp_sim -> 4

let kind_name = function
  | Parse_check -> "parse-check"
  | Campion -> "campion"
  | Topology -> "topology"
  | Route_policies -> "route-policies"
  | Bgp_sim -> "bgp-sim"

let kind_of_name = function
  | "parse-check" -> Some Parse_check
  | "campion" -> Some Campion
  | "topology" -> Some Topology
  | "route-policies" -> Some Route_policies
  | "bgp-sim" -> Some Bgp_sim
  | _ -> None

type failure =
  | Crashed of { down_ticks : int }
  | Timed_out of { ticks : int }
  | Flaked
  | Truncated
  | Faulted of Guard.crash

let failure_to_string = function
  | Crashed { down_ticks } -> Printf.sprintf "crashed (down for %d ticks)" down_ticks
  | Timed_out { ticks } -> Printf.sprintf "timed out after %d ticks" ticks
  | Flaked -> "transient failure"
  | Truncated -> "truncated response discarded"
  | Faulted c ->
      Printf.sprintf "stage %s aborted on %s (input %s)" c.Guard.stage
        c.Guard.constructor c.Guard.fingerprint

type ('i, 'o) t = {
  kind : kind;
  oracle : 'i -> 'o;
  dirty : 'o -> bool;
  mutable schedule : ('i -> ('o, failure) result) option;
  mutable oracle_service : ('i -> ('o, Guard.crash) result) option;
}

let wrap ?(dirty = fun _ -> false) kind oracle =
  { kind; oracle; dirty; schedule = None; oracle_service = None }

let kind t = t.kind
let dirty t o = t.dirty o

(* The oracle behind the exception firewall. The input's fingerprint hashes
   the whole input (a draft, for the syntax and route-policy stages), so it
   is filled into the crash only when there is one. *)
let guarded ~label t input =
  Result.map_error
    (fun crash -> { crash with Guard.fingerprint = Guard.fingerprint_value input })
    (Guard.run ~label (fun () -> t.oracle input))

let run_oracle t input =
  Result.map_error (fun crash -> Faulted crash) (guarded ~label:(kind_name t.kind) t input)

let run t input =
  match t.schedule with None -> run_oracle t input | Some f -> f input

let oracle t input = t.oracle input
let install t f = t.schedule <- Some f

let runner t = match t.schedule with None -> run_oracle t | Some f -> f

let install_oracle t f = t.oracle_service <- Some f
let oracle_service t = t.oracle_service

(* Without a service, the cross-check oracle is [Runtime]'s hand-run check. *)
let oracle_runner t =
  match t.oracle_service with
  | None -> guarded ~label:(kind_name t.kind ^ "/hand-check") t
  | Some f -> f
