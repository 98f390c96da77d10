module Insn = Pred32_isa.Insn

type t = Bot | I of int * int | Top

let word_max = 0xFFFFFFFF
let top = Top
let bot = Bot

let interval lo hi =
  if lo > hi then Bot
  else if lo < 0 || hi > word_max then Top
  else I (lo, hi)

let const w =
  let w = w land word_max in
  I (w, w)

let of_signed_const v = const (v land word_max)
let is_bot v = v = Bot

let singleton = function
  | I (lo, hi) when lo = hi -> Some lo
  | I _ | Top | Bot -> None

let range = function
  | I (lo, hi) -> Some (lo, hi)
  | Top | Bot -> None

let width = function
  | Bot -> 0
  | I (lo, hi) -> hi - lo + 1
  | Top -> max_int

let equal a b =
  match (a, b) with
  | Bot, Bot | Top, Top -> true
  | I (a1, a2), I (b1, b2) -> a1 = b1 && a2 = b2
  | (Bot | Top | I _), _ -> false

let leq a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Top -> true
  | I (a1, a2), I (b1, b2) -> a1 >= b1 && a2 <= b2
  | (Top | I _), _ -> false

(* An argument that already contains the other is the join itself. *)
let join a b =
  match (a, b) with
  | Bot, v | v, Bot -> v
  | Top, _ -> a
  | _, Top -> b
  | I (a1, a2), I (b1, b2) ->
    if a1 <= b1 && b2 <= a2 then a
    else if b1 <= a1 && a2 <= b2 then b
    else I ((if a1 <= b1 then a1 else b1), if a2 >= b2 then a2 else b2)

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, v | v, Top -> v
  | I (a1, a2), I (b1, b2) ->
    let lo = max a1 b1 and hi = min a2 b2 in
    if lo > hi then Bot else I (lo, hi)

(* Threshold widening: jump to the signed-boundary threshold before the
   full range, so intervals of non-negative signed values stay refinable by
   signed compare-and-branch conditions (loop exits). *)
let widen old new_ =
  match (old, new_) with
  | Bot, v -> v
  | v, Bot -> v
  | Top, _ | _, Top -> Top
  | I (a1, a2), I (b1, b2) ->
    let lo = if b1 >= a1 then a1 else if b1 >= 0x80000000 then 0x80000000 else 0 in
    let hi = if b2 <= a2 then a2 else if b2 <= 0x7FFFFFFF then 0x7FFFFFFF else word_max in
    I (lo, hi)

(* Exact arithmetic on mathematical integers, collapsing to Top on any
   possible wrap. *)
let lift2 f a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, _ | _, Top -> Top
  | I (a1, a2), I (b1, b2) -> f a1 a2 b1 b2

(* If the whole interval wraps (e.g. adding a negative offset encoded as a
   large unsigned constant), shift it back into range; only intervals that
   straddle the wrap boundary are lost. *)
let add =
  lift2 (fun a1 a2 b1 b2 ->
      let lo = a1 + b1 and hi = a2 + b2 in
      if hi <= word_max then interval lo hi
      else if lo > word_max then interval (lo - 0x100000000) (hi - 0x100000000)
      else Top)

let sub =
  lift2 (fun a1 a2 b1 b2 ->
      let lo = a1 - b2 and hi = a2 - b1 in
      if lo >= 0 then interval lo hi
      else if hi < 0 then interval (lo + 0x100000000) (hi + 0x100000000)
      else Top)

let mul =
  lift2 (fun a1 a2 b1 b2 ->
      (* All values non-negative, so extremes are the corner products. *)
      if a2 > 0xFFFF && b2 > 0xFFFF then Top else interval (a1 * b1) (a2 * b2))

let divu =
  lift2 (fun a1 a2 b1 b2 ->
      if b1 = 0 then Top (* division by zero yields 0xFFFFFFFF: give up *)
      else interval (a1 / b2) (a2 / b1))

let remu =
  lift2 (fun a1 a2 b1 b2 ->
      if b1 = 0 then Top
      else if a2 < b1 then interval a1 a2 (* remainder is the identity *)
      else interval 0 (min a2 (b2 - 1)))

let logand a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | I (a1, a2), I (b1, b2) when a1 = a2 && b1 = b2 -> const (a1 land b1)
  | (I _ | Top), I (b1, b2) when b1 = b2 -> interval 0 b2 (* masking *)
  | I (a1, a2), (I _ | Top) when a1 = a2 -> interval 0 a2
  | I (_, a2), I (_, b2) -> interval 0 (min a2 b2)
  | _, _ -> Top

let logor a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | I (a1, a2), I (b1, b2) when a1 = a2 && b1 = b2 -> const (a1 lor b1)
  | I (a1, a2), I (b1, b2) ->
    (* result >= each operand; bounded by next power of two above both *)
    let rec ceil_mask v m = if m >= v then m else ceil_mask v ((m * 2) + 1) in
    interval (max a1 b1) (ceil_mask (max a2 b2) 1)
  | _, _ -> Top

let logxor a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | I (a1, a2), I (b1, b2) when a1 = a2 && b1 = b2 -> const (a1 lxor b1)
  | I (_, a2), I (_, b2) ->
    let rec ceil_mask v m = if m >= v then m else ceil_mask v ((m * 2) + 1) in
    interval 0 (ceil_mask (max a2 b2) 1)
  | _, _ -> Top

let shl a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | I (a1, a2), I (b1, b2) when b1 = b2 ->
    let s = b1 land 31 in
    (* exact only when no bit can be shifted out (wrapping is not
       contiguous); guard against native-int overflow too *)
    if a2 <= word_max lsr s then interval (a1 lsl s) (a2 lsl s) else Top
  | _, _ -> Top

let shr a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | I (a1, a2), I (b1, b2) when b1 = b2 ->
    let s = b1 land 31 in
    interval (a1 lsr s) (a2 lsr s)
  | Top, I (b1, b2) when b1 = b2 && b1 land 31 > 0 ->
    interval 0 (word_max lsr (b1 land 31))
  | _, _ -> Top

let sra a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | I (a1, a2), I (b1, b2) when b1 = b2 && a2 < 0x80000000 ->
    (* non-negative signed values: arithmetic = logical shift *)
    let s = b1 land 31 in
    interval (a1 lsr s) (a2 lsr s)
  | _, _ -> Top

let bool_interval lo hi = I (lo, hi)

let sltu a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | I (_, a2), I (b1, _) when a2 < b1 -> bool_interval 1 1
  | I (a1, _), I (_, b2) when a1 >= b2 -> bool_interval 0 0
  | _, _ -> bool_interval 0 1

(* Signed comparison is precise only in the non-negative signed range. *)
let in_nonneg_signed = function
  | I (_, hi) -> hi < 0x80000000
  | Top | Bot -> false

let in_negative_signed = function
  | I (lo, _) -> lo >= 0x80000000
  | Top | Bot -> false

let slt a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _ when in_nonneg_signed a && in_nonneg_signed b -> sltu a b
  | _ when in_negative_signed a && in_nonneg_signed b -> bool_interval 1 1
  | _ when in_nonneg_signed a && in_negative_signed b -> bool_interval 0 0
  | _ when in_negative_signed a && in_negative_signed b -> sltu a b
  | _, _ -> bool_interval 0 1

(* Refinement for unsigned orderings; [strict] refines a < b, otherwise
   a <= b. *)
let refine_ltu ~strict a b =
  match (a, b) with
  | Bot, _ | _, Bot -> (Bot, Bot)
  | _ ->
    let a1, a2 = match a with I (x, y) -> (x, y) | Top -> (0, word_max) | Bot -> assert false in
    let b1, b2 = match b with I (x, y) -> (x, y) | Top -> (0, word_max) | Bot -> assert false in
    let d = if strict then 1 else 0 in
    let a' = interval a1 (min a2 (b2 - d)) in
    let b' = interval (max b1 (a1 + d)) b2 in
    (a', b')

let refine_geu ~strict a b =
  (* a > b (strict) or a >= b *)
  let b', a' = refine_ltu ~strict b a in
  (a', b')

let both_same_sign_range a b =
  (in_nonneg_signed a && in_nonneg_signed b) || (in_negative_signed a && in_negative_signed b)

let refine_cond cond holds a b =
  match (cond, holds) with
  | Insn.Beq, true | Insn.Bne, false ->
    let m = meet a b in
    (m, m)
  | Insn.Beq, false | Insn.Bne, true -> (
    (* Remove a singleton endpoint when possible. *)
    match (a, b) with
    | I (a1, a2), I (b1, b2) when b1 = b2 ->
      let a' =
        if a1 = b1 && a2 = b1 then Bot
        else if a1 = b1 then interval (a1 + 1) a2
        else if a2 = b1 then interval a1 (a2 - 1)
        else a
      in
      (a', b)
    | I (a1, a2), _ when a1 = a2 -> (
      match b with
      | I (b1, b2) ->
        let b' =
          if b1 = a1 && b2 = a1 then Bot
          else if b1 = a1 then interval (b1 + 1) b2
          else if b2 = a1 then interval b1 (b2 - 1)
          else b
        in
        (a, b')
      | Top | Bot -> (a, b))
    | _ -> (a, b))
  | Insn.Bltu, true -> refine_ltu ~strict:true a b
  | Insn.Bltu, false -> refine_geu ~strict:false a b
  | Insn.Bgeu, true -> refine_geu ~strict:false a b
  | Insn.Bgeu, false -> refine_ltu ~strict:true a b
  | Insn.Blt, true ->
    if both_same_sign_range a b then refine_ltu ~strict:true a b
    else if in_nonneg_signed a && in_negative_signed b then (Bot, Bot)
    else (a, b)
  | Insn.Blt, false ->
    if both_same_sign_range a b then refine_geu ~strict:false a b
    else if in_negative_signed a && in_nonneg_signed b then (Bot, Bot)
    else (a, b)
  | Insn.Bge, true ->
    if both_same_sign_range a b then refine_geu ~strict:false a b
    else if in_negative_signed a && in_nonneg_signed b then (Bot, Bot)
    else (a, b)
  | Insn.Bge, false ->
    if both_same_sign_range a b then refine_ltu ~strict:true a b
    else if in_nonneg_signed a && in_negative_signed b then (Bot, Bot)
    else (a, b)

let pp ppf = function
  | Bot -> Format.pp_print_string ppf "_|_"
  | Top -> Format.pp_print_string ppf "T"
  | I (lo, hi) ->
    if lo = hi then Format.fprintf ppf "%d" lo else Format.fprintf ppf "[%d,%d]" lo hi
