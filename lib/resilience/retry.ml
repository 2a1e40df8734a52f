type policy = {
  max_attempts : int;
  base_backoff : int;
  max_backoff : int;
  jitter : float;
}

let default = { max_attempts = 3; base_backoff = 2; max_backoff = 16; jitter = 0.5 }

let backoff p rng ~failures =
  let failures = max 1 failures in
  (* Shift capped at 20 so the intermediate never overflows before the cap
     applies. *)
  let exp = p.base_backoff * (1 lsl min (failures - 1) 20) in
  let capped = max 0 (min p.max_backoff exp) in
  let jitter_bound = int_of_float (p.jitter *. float_of_int capped) in
  let jitter = if jitter_bound <= 0 then 0 else Netcore.Rng.int rng (jitter_bound + 1) in
  capped + jitter
