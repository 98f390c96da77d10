(* Tests for wcet_util: PCG32 determinism, exact rationals. The fixpoint
   engine and the domain pool are covered by test_fixpoint.ml. *)

module Pcg = Wcet_util.Pcg
module Rat = Wcet_util.Rat

let test_pcg_deterministic () =
  let a = Pcg.create ~seed:42L () and b = Pcg.create ~seed:42L () in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same stream" (Pcg.next_uint32 a) (Pcg.next_uint32 b)
  done

let test_pcg_seed_sensitivity () =
  let a = Pcg.create ~seed:1L () and b = Pcg.create ~seed:2L () in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Pcg.next_uint32 a) (Pcg.next_uint32 b)) then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_pcg_range () =
  let g = Pcg.create ~seed:7L () in
  for _ = 1 to 10_000 do
    let v = Pcg.next_uint32 g in
    Alcotest.(check bool) "in range" true (v >= 0L && v < 0x100000000L)
  done

let test_pcg_below () =
  let g = Pcg.create ~seed:7L () in
  for _ = 1 to 10_000 do
    let v = Pcg.next_below g 10L in
    Alcotest.(check bool) "below 10" true (v >= 0L && v < 10L)
  done

let test_pcg_copy_independent () =
  let a = Pcg.create ~seed:3L () in
  let _ = Pcg.next_uint32 a in
  let b = Pcg.copy a in
  let va = Pcg.next_uint32 a and vb = Pcg.next_uint32 b in
  Alcotest.(check int64) "copy continues identically" va vb

(* Rationals *)

let rat = Alcotest.testable Rat.pp Rat.equal

let test_rat_normalization () =
  Alcotest.check rat "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
  Alcotest.check rat "-6/-4 = 3/2" (Rat.make 3 2) (Rat.make (-6) (-4));
  Alcotest.check rat "6/-4 = -3/2" (Rat.make (-3) 2) (Rat.make 6 (-4));
  Alcotest.check rat "0/7 = 0" Rat.zero (Rat.make 0 7)

let test_rat_arith () =
  let half = Rat.make 1 2 and third = Rat.make 1 3 in
  Alcotest.check rat "1/2+1/3" (Rat.make 5 6) (Rat.add half third);
  Alcotest.check rat "1/2-1/3" (Rat.make 1 6) (Rat.sub half third);
  Alcotest.check rat "1/2*1/3" (Rat.make 1 6) (Rat.mul half third);
  Alcotest.check rat "1/2 / 1/3" (Rat.make 3 2) (Rat.div half third)

let test_rat_compare () =
  Alcotest.(check int) "1/2 < 2/3" (-1) (Rat.compare (Rat.make 1 2) (Rat.make 2 3));
  Alcotest.(check int) "-1/2 < 1/3" (-1) (Rat.compare (Rat.make (-1) 2) (Rat.make 1 3));
  Alcotest.(check bool) "eq" true (Rat.equal (Rat.make 2 4) (Rat.make 1 2))

let test_rat_floor_ceil () =
  Alcotest.(check int) "floor 7/2" 3 (Rat.floor (Rat.make 7 2));
  Alcotest.(check int) "ceil 7/2" 4 (Rat.ceil (Rat.make 7 2));
  Alcotest.(check int) "floor -7/2" (-4) (Rat.floor (Rat.make (-7) 2));
  Alcotest.(check int) "ceil -7/2" (-3) (Rat.ceil (Rat.make (-7) 2));
  Alcotest.(check int) "floor 4" 4 (Rat.floor (Rat.of_int 4));
  Alcotest.(check int) "ceil 4" 4 (Rat.ceil (Rat.of_int 4))

(* [min_int] has no negation, so the exactness contract keeps it out of
   [Rat] altogether: every way of producing it raises [Overflow]. *)
let overflows name f = Alcotest.check_raises name Rat.Overflow (fun () -> ignore (f ()))

let test_rat_mul_min_int () =
  overflows "min_int * -1" (fun () -> Rat.mul (Rat.of_int min_int) Rat.minus_one);
  overflows "-1 * min_int" (fun () -> Rat.mul Rat.minus_one (Rat.of_int min_int));
  (* in-range operands whose product is exactly min_int *)
  overflows "2^31 * -2^31" (fun () -> Rat.mul (Rat.of_int (1 lsl 31)) (Rat.of_int (-(1 lsl 31))))

let test_rat_neg_min_int () =
  overflows "neg min_int" (fun () -> Rat.neg (Rat.of_int min_int));
  Alcotest.check rat "neg -max_int" (Rat.of_int max_int) (Rat.neg (Rat.of_int (-max_int)))

let test_rat_sub_min_int () =
  overflows "0 - min_int" (fun () -> Rat.sub Rat.zero (Rat.of_int min_int));
  overflows "-max_int - 1" (fun () -> Rat.sub (Rat.of_int (-max_int)) Rat.one)

let test_rat_abs_min_int () =
  overflows "abs min_int" (fun () -> Rat.abs (Rat.of_int min_int));
  Alcotest.check rat "abs -max_int" (Rat.of_int max_int) (Rat.abs (Rat.of_int (-max_int)))

let test_rat_make_min_int () =
  overflows "make min_int 3" (fun () -> Rat.make min_int 3);
  overflows "make 3 min_int" (fun () -> Rat.make 3 min_int);
  let r = Rat.make (-max_int) 3 in
  Alcotest.(check bool) "denominator positive" true (r.Rat.den > 0)

let rat_qcheck =
  let gen =
    QCheck2.Gen.map2 (fun n d -> Rat.make n (if d = 0 then 1 else d))
      (QCheck2.Gen.int_range (-1000) 1000)
      (QCheck2.Gen.int_range (-50) 50)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"add commutative" ~count:500
         (QCheck2.Gen.pair gen gen)
         (fun (a, b) -> Rat.equal (Rat.add a b) (Rat.add b a)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"mul distributes over add" ~count:500
         (QCheck2.Gen.triple gen gen gen)
         (fun (a, b, c) ->
           Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"floor <= x <= ceil" ~count:500 gen (fun a ->
           Rat.compare (Rat.of_int (Rat.floor a)) a <= 0
           && Rat.compare a (Rat.of_int (Rat.ceil a)) <= 0));
  ]

let () =
  Alcotest.run "util"
    [
      ( "pcg",
        [
          Alcotest.test_case "deterministic" `Quick test_pcg_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_pcg_seed_sensitivity;
          Alcotest.test_case "uint32 range" `Quick test_pcg_range;
          Alcotest.test_case "next_below range" `Quick test_pcg_below;
          Alcotest.test_case "copy independence" `Quick test_pcg_copy_independent;
        ] );
      ( "rat",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "compare" `Quick test_rat_compare;
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
          Alcotest.test_case "mul reaching min_int" `Quick test_rat_mul_min_int;
          Alcotest.test_case "neg min_int" `Quick test_rat_neg_min_int;
          Alcotest.test_case "sub reaching min_int" `Quick test_rat_sub_min_int;
          Alcotest.test_case "abs min_int" `Quick test_rat_abs_min_int;
          Alcotest.test_case "make min_int" `Quick test_rat_make_min_int;
        ]
        @ rat_qcheck );
    ]
