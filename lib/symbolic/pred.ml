open Netcore

type t = Cube.t list

let empty = []
let full = [ Cube.full ]
let of_cube c = if Cube.is_empty c then [] else [ c ]
let of_cubes cs = List.concat_map of_cube cs
let union a b = a @ b

let inter a b =
  List.concat_map (fun x -> List.filter_map (fun y -> Cube.inter x y) b) a

let diff a b =
  List.fold_left (fun acc y -> List.concat_map (fun x -> Cube.diff x y) acc) a b

let is_empty t = List.for_all Cube.is_empty t

let satisfies ~env r t = List.exists (fun c -> Cube.satisfies ~env r c) t

let default_universe =
  [
    As_path.empty;
    As_path.of_list [ 65001 ];
    As_path.of_list [ 65001; 65002 ];
    As_path.of_list [ 65002; 65001 ];
    As_path.of_list [ 65001; 65002; 65003 ];
    As_path.of_list [ 100 ];
    As_path.of_list [ 100; 200 ];
    As_path.of_list [ 200; 100; 300 ];
  ]

let sample ~env ?(universe = default_universe) t =
  List.find_map (fun c -> Cube.sample ~env ~universe c) t

let as_path_lists_referenced t =
  List.concat_map (fun (c : Cube.t) -> c.aspath.must @ c.aspath.must_not) t

let cubes t = t
