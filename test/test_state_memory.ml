(* Tests of the abstract-state layer (tracked memory, havoc, linkage
   protection, origins) and the concrete memory-map/image substrate. *)

module State = Wcet_value.State
module Aval = Wcet_value.Aval
module Reg = Pred32_isa.Reg
module Region = Pred32_memory.Region
module Memory_map = Pred32_memory.Memory_map
module Image = Pred32_memory.Image

(* a tiny program so State.load can consult ROM *)
let program = Minic.Compile.compile "rom int table[2] = {11, 22}; int main() { return table[0]; }"

let no_linkage _ = false

let test_reg_ops () =
  let st = State.entry_state ~assumes:[] in
  let st = State.set_reg st (Reg.of_int 3) (Aval.const 7) in
  Alcotest.(check bool) "read back" true
    (Aval.equal (State.get_reg st (Reg.of_int 3)) (Aval.const 7));
  (* r0 is hardwired zero *)
  let st = State.set_reg st Reg.zero (Aval.const 9) in
  Alcotest.(check bool) "r0 stays zero" true
    (Aval.equal (State.get_reg st Reg.zero) (Aval.const 0))

let test_memory_tracking () =
  let st = State.entry_state ~assumes:[] in
  let addr = 0x10000100 in
  Alcotest.(check bool) "untracked is top" true
    (Aval.equal (State.load ~program st addr) Aval.top);
  let st = State.store ~linkage:no_linkage st addr (Aval.const 5) in
  Alcotest.(check bool) "tracked after store" true
    (Aval.equal (State.load ~program st addr) (Aval.const 5))

let test_rom_reads_are_constants () =
  let st = State.entry_state ~assumes:[] in
  let table = Pred32_asm.Program.symbol program "table" in
  Alcotest.(check bool) "rom word 0" true
    (Aval.equal (State.load ~program st table) (Aval.const 11));
  Alcotest.(check bool) "rom word 1" true
    (Aval.equal (State.load ~program st (table + 4)) (Aval.const 22))

let test_weak_update () =
  let st = State.entry_state ~assumes:[] in
  let a1 = 0x10000100 and a2 = 0x10000104 in
  let st = State.store ~linkage:no_linkage st a1 (Aval.const 1) in
  let st = State.store ~linkage:no_linkage st a2 (Aval.const 2) in
  (* a write to one of {a1, a2} weakens both *)
  let st = State.store_weak ~linkage:no_linkage st [ a1; a2 ] (Aval.const 9) in
  let v1 = State.load ~program st a1 in
  Alcotest.(check bool) "a1 joined" true (Aval.leq (Aval.const 1) v1 && Aval.leq (Aval.const 9) v1);
  let v2 = State.load ~program st a2 in
  Alcotest.(check bool) "a2 joined" true (Aval.leq (Aval.const 2) v2 && Aval.leq (Aval.const 9) v2)

let test_havoc_and_linkage () =
  let st = State.entry_state ~assumes:[] in
  let data = 0x10000100 and saved_lr = 0x100FFFF8 in
  let st = State.store ~linkage:no_linkage st data (Aval.const 5) in
  let st = State.store ~linkage:no_linkage st saved_lr (Aval.const 0x44) in
  let linkage a = a = saved_lr in
  let st = State.havoc ~linkage st in
  Alcotest.(check bool) "data forgotten" true (Aval.equal (State.load ~program st data) Aval.top);
  Alcotest.(check bool) "linkage survives" true
    (Aval.equal (State.load ~program st saved_lr) (Aval.const 0x44))

let test_join_drops_one_sided () =
  let base = State.entry_state ~assumes:[] in
  let a = State.store ~linkage:no_linkage base 0x10000100 (Aval.const 1) in
  let b = State.store ~linkage:no_linkage base 0x10000104 (Aval.const 2) in
  let j = State.join a b in
  (* entries present on only one side are unknown on the other -> dropped *)
  Alcotest.(check bool) "one-sided dropped (0x100)" true
    (Aval.equal (State.load ~program j 0x10000100) Aval.top);
  Alcotest.(check bool) "one-sided dropped (0x104)" true
    (Aval.equal (State.load ~program j 0x10000104) Aval.top);
  let a2 = State.store ~linkage:no_linkage base 0x10000100 (Aval.const 3) in
  let j2 = State.join a a2 in
  match State.load ~program j2 0x10000100 with
  | Aval.I (1, 3) -> ()
  | v -> Alcotest.failf "expected [1,3], got %a" Aval.pp v

let test_leq_order () =
  let base = State.entry_state ~assumes:[] in
  let precise = State.store ~linkage:no_linkage base 0x10000100 (Aval.const 1) in
  Alcotest.(check bool) "precise leq base" true (State.leq precise base);
  Alcotest.(check bool) "base not leq precise" false (State.leq base precise);
  Alcotest.(check bool) "reflexive" true (State.leq precise precise)

(* --- memory map and image --- *)

let test_map_lookup () =
  let map = Memory_map.default in
  (match Memory_map.find map 0x10000000 with
  | Some r -> Alcotest.(check string) "ram" "ram" r.Region.name
  | None -> Alcotest.fail "ram not found");
  (match Memory_map.find map 0xF0000000 with
  | Some r -> Alcotest.(check string) "io" "io" r.Region.name
  | None -> Alcotest.fail "io not found");
  Alcotest.(check (option string)) "gap unmapped" None
    (Option.map (fun (r : Region.t) -> r.Region.name) (Memory_map.find map 0x30000000));
  Alcotest.(check int) "worst read is io" 40 (Memory_map.worst_read_latency map)

let test_overlap_rejected () =
  let r1 =
    Region.make ~name:"a" ~kind:Region.Ram ~base:0 ~size:64 ~read_latency:1 ~write_latency:1
      ~cacheable:false ~writable:true
  in
  let r2 =
    Region.make ~name:"b" ~kind:Region.Ram ~base:32 ~size:64 ~read_latency:1 ~write_latency:1
      ~cacheable:false ~writable:true
  in
  match Memory_map.make [ r1; r2 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected overlap rejection"

let test_image_faults () =
  let image = Image.create Memory_map.default in
  Alcotest.check_raises "unaligned" (Image.Bus_error 0x10000002) (fun () ->
      ignore (Image.read_word image 0x10000002));
  Alcotest.check_raises "unmapped" (Image.Bus_error 0x30000000) (fun () ->
      ignore (Image.read_word image 0x30000000));
  Alcotest.check_raises "rom write" (Image.Write_to_rom 0x100) (fun () ->
      Image.write_word image 0x100 1);
  Alcotest.check_raises "unaligned write" (Image.Bus_error 0x10000006) (fun () ->
      Image.write_word image 0x10000006 1);
  Alcotest.check_raises "unmapped write" (Image.Bus_error 0x30000000) (fun () ->
      Image.write_word image 0x30000000 1);
  Alcotest.check_raises "unmapped load" (Image.Bus_error 0x30000000) (fun () ->
      Image.load_words image ~base:0x30000000 [| 1 |]);
  Alcotest.(check (list (pair int int))) "failed accesses leave no words" []
    (Image.contents image)

let test_image_copy_isolated () =
  let image = Image.create Memory_map.default in
  Image.write_word image 0x10000000 42;
  let copy = Image.copy image in
  Image.write_word copy 0x10000000 7;
  Alcotest.(check int) "original intact" 42 (Image.read_word image 0x10000000);
  Alcotest.(check int) "copy changed" 7 (Image.read_word copy 0x10000000);
  Image.write_word image 0x10000004 5;
  Alcotest.(check int) "copy unaffected by the original" 0 (Image.read_word copy 0x10000004);
  Alcotest.(check (list (pair int int))) "copy contents" [ (0x10000000, 7) ] (Image.contents copy)

(* The image holds the non-zero words a program wrote and nothing else. *)
let test_image_sparse_contents () =
  let image = Image.create Memory_map.default in
  List.iter
    (fun addr ->
      Alcotest.(check int) (Printf.sprintf "0x%x reads 0" addr) 0 (Image.read_word image addr))
    [ 0x0; 0x3FFFC; 0x10000000; 0x100FFFFC; 0x20000000; 0xF0000000 ];
  Alcotest.(check (list (pair int int))) "fresh image is empty" [] (Image.contents image);
  Image.load_words image ~base:0x40 [| 1; 0; -1 |];
  Image.write_word image 0x10000008 9;
  Image.write_word image 0x10000000 3;
  Alcotest.(check (list (pair int int))) "sorted non-zero words, masked to 32 bits"
    [ (0x40, 1); (0x48, 0xFFFFFFFF); (0x10000000, 3); (0x10000008, 9) ]
    (Image.contents image);
  Image.write_word image 0x10000008 0;
  Image.load_words image ~base:0x40 [| 0 |];
  Alcotest.(check (list (pair int int))) "writing 0 drops the word"
    [ (0x48, 0xFFFFFFFF); (0x10000000, 3) ]
    (Image.contents image);
  Alcotest.(check int) "dropped word reads 0" 0 (Image.read_word image 0x10000008);
  (* two write orders that leave the same memory have equal contents *)
  let other = Image.create Memory_map.default in
  Image.write_word other 0x10000000 77;
  Image.write_word other 0x10000004 4;
  Image.write_word other 0x10000000 3;
  Image.write_word other 0x10000004 0;
  Image.load_words other ~base:0x48 [| 0xFFFFFFFF |];
  Alcotest.(check (list (pair int int))) "order-independent contents" (Image.contents image)
    (Image.contents other)

let () =
  Alcotest.run "state_memory"
    [
      ( "state",
        [
          Alcotest.test_case "registers" `Quick test_reg_ops;
          Alcotest.test_case "memory tracking" `Quick test_memory_tracking;
          Alcotest.test_case "rom constants" `Quick test_rom_reads_are_constants;
          Alcotest.test_case "weak update" `Quick test_weak_update;
          Alcotest.test_case "havoc spares linkage" `Quick test_havoc_and_linkage;
          Alcotest.test_case "join drops one-sided" `Quick test_join_drops_one_sided;
          Alcotest.test_case "leq order" `Quick test_leq_order;
        ] );
      ( "memory",
        [
          Alcotest.test_case "map lookup" `Quick test_map_lookup;
          Alcotest.test_case "overlap rejected" `Quick test_overlap_rejected;
          Alcotest.test_case "image faults" `Quick test_image_faults;
          Alcotest.test_case "image copy isolation" `Quick test_image_copy_isolated;
          Alcotest.test_case "image sparse contents" `Quick test_image_sparse_contents;
        ] );
    ]
