type t = { num : int; den : int }

exception Overflow

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Numerators and denominators stay in the symmetric range
   [-max_int, max_int]: [min_int] has no negation, so admitting it would
   make [neg], [abs] and sign normalization wrap. [checked] rejects it. *)
let checked n = if n = min_int then raise Overflow else n

(* Overflow-checked native multiplication and addition: detect wrap by
   dividing back.  Native ints are 63-bit, plenty for IPET coefficients, but
   we refuse to return silently wrong values. Dividing back cannot see
   [min_int * -1] (it wraps to [min_int], and [min_int / -1] is [min_int]
   again); [checked] can. *)
let mul_exact a b =
  if a = 0 || b = 0 then 0
  else
    let r = a * b in
    if r / b <> a then raise Overflow else checked r

let add_exact a b =
  let r = a + b in
  if (a >= 0 && b >= 0 && r < 0) || (a < 0 && b < 0 && r >= 0) then raise Overflow else checked r

let make num den =
  if den = 0 then raise Division_by_zero;
  let num = checked num and den = checked den in
  if num = 0 then { num = 0; den = 1 }
  else
    let s = if den < 0 then -1 else 1 in
    let num = s * num and den = s * den in
    let g = gcd (abs num) den in
    { num = num / g; den = den / g }

let zero = { num = 0; den = 1 }
let one = { num = 1; den = 1 }
let minus_one = { num = -1; den = 1 }
let of_int n = { num = checked n; den = 1 }

let add a b =
  let g = gcd a.den b.den in
  let da = a.den / g and db = b.den / g in
  make (add_exact (mul_exact a.num db) (mul_exact b.num da)) (mul_exact a.den db)

let neg a = { num = -a.num; den = a.den }
let sub a b = add a (neg b)

let mul a b =
  (* Cross-reduce before multiplying to keep intermediates small. *)
  let g1 = gcd (abs a.num) b.den and g2 = gcd (abs b.num) a.den in
  let g1 = if g1 = 0 then 1 else g1 and g2 = if g2 = 0 then 1 else g2 in
  make (mul_exact (a.num / g1) (b.num / g2)) (mul_exact (a.den / g2) (b.den / g1))

let div a b =
  if b.num = 0 then raise Division_by_zero;
  mul a (make b.den b.num)

let abs a = { a with num = abs a.num }
let sign a = compare a.num 0

let compare a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den *)
  compare (mul_exact a.num b.den) (mul_exact b.num a.den)

let equal a b = a.num = b.num && a.den = b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let is_integer a = a.den = 1

let floor a =
  if a.num >= 0 then a.num / a.den
  else
    let q = a.num / a.den in
    if a.num mod a.den = 0 then q else q - 1

let ceil a = -floor (neg a)
let to_float a = float_of_int a.num /. float_of_int a.den

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num else Format.fprintf ppf "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a
