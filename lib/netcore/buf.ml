(* Digits of a non-positive [n], most significant first: negating a
   positive int cannot overflow, so [min_int] needs no special case. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then (
    Buffer.add_char b '-';
    add_neg_digits b n)
  else add_neg_digits b (-n)
