module Addr_map = Map.Make (Int)
module Reg = Pred32_isa.Reg
module Program = Pred32_asm.Program
module Memory_map = Pred32_memory.Memory_map
module Region = Pred32_memory.Region
module Image = Pred32_memory.Image

type t = { regs : Aval.t array; mem : Aval.t Addr_map.t; origins : int option array }

let entry_state ~assumes =
  {
    regs = Array.make 16 Aval.top;
    mem = List.fold_left (fun m (a, v) -> Addr_map.add a v m) Addr_map.empty assumes;
    origins = Array.make 16 None;
  }

let zero_value = Aval.const 0

let get_reg t r = if Reg.equal r Reg.zero then zero_value else t.regs.(Reg.to_int r)

let load_mem ~program mem addr =
  match Addr_map.find_opt addr mem with
  | Some v -> v
  | None -> (
    match Memory_map.find program.Program.map addr with
    | Some r when r.Region.kind = Region.Rom && addr land 3 = 0 ->
      Aval.const (Image.read_word program.Program.image addr)
    | Some _ | None -> Aval.top)

let load ~program t addr = load_mem ~program t.mem addr

(* An edit owns copies of the register file and the origins; memory is a
   persistent map, so it is shared until written. *)
type edit = { e_regs : Aval.t array; e_origins : int option array; mutable e_mem : Aval.t Addr_map.t }

let edit t = { e_regs = Array.copy t.regs; e_origins = Array.copy t.origins; e_mem = t.mem }
let freeze e = { regs = e.e_regs; mem = e.e_mem; origins = e.e_origins }

module Edit = struct
  let get_reg e r = if Reg.equal r Reg.zero then zero_value else e.e_regs.(Reg.to_int r)

  let set_reg e r v =
    if not (Reg.equal r Reg.zero) then begin
      e.e_regs.(Reg.to_int r) <- v;
      e.e_origins.(Reg.to_int r) <- None
    end

  let set_reg_origin e r v ~origin =
    if not (Reg.equal r Reg.zero) then begin
      e.e_regs.(Reg.to_int r) <- v;
      e.e_origins.(Reg.to_int r) <- Some origin
    end

  let load ~program e addr = load_mem ~program e.e_mem addr

  (* Drop origin records that alias the written addresses. *)
  let clear_origins e pred =
    Array.iteri
      (fun i o -> match o with Some a when pred a -> e.e_origins.(i) <- None | Some _ | None -> ())
      e.e_origins

  let store ~linkage:_ e addr v =
    clear_origins e (fun a -> a = addr);
    e.e_mem <- Addr_map.add addr v e.e_mem

  let store_weak ~linkage e addrs v =
    clear_origins e (fun a -> List.mem a addrs);
    e.e_mem <-
      List.fold_left
        (fun m a ->
          if linkage a then m
          else
            let old = match Addr_map.find_opt a m with Some x -> x | None -> Aval.top in
            (* absent means unknown: joining with Top stays Top, so only
               refine existing entries pessimistically *)
            Addr_map.add a (Aval.join old v) m)
        e.e_mem addrs

  let havoc ~linkage e =
    clear_origins e (fun a -> not (linkage a));
    e.e_mem <- Addr_map.filter (fun a _ -> linkage a) e.e_mem

  let blit_regs e dst = Array.blit e.e_regs 0 dst 0 (Array.length e.e_regs)
end

(* Each pure update is one edit, one [Edit] operation and one freeze. *)
let pure f t =
  let e = edit t in
  f e;
  freeze e

let set_reg t r v = if Reg.equal r Reg.zero then t else pure (fun e -> Edit.set_reg e r v) t

let store ~linkage t addr v = pure (fun e -> Edit.store ~linkage e addr v) t
let store_weak ~linkage t addrs v = pure (fun e -> Edit.store_weak ~linkage e addrs v) t
let havoc ~linkage t = pure (fun e -> Edit.havoc ~linkage e) t

let leq a b =
  a == b
  || (let rec regs_leq i =
        i = Array.length a.regs
        || ((a.regs.(i) == b.regs.(i) || Aval.leq a.regs.(i) b.regs.(i)) && regs_leq (i + 1))
      in
      regs_leq 0)
     && (a.mem == b.mem
        || Addr_map.for_all
             (fun addr vb ->
               let va = match Addr_map.find_opt addr a.mem with Some v -> v | None -> Aval.top in
               Aval.leq va vb)
             b.mem)

(* A cell physically equal on both sides is its own join and widening. *)
let merge_with f a b =
  let regs =
    Array.init 16 (fun i ->
        let va = a.regs.(i) and vb = b.regs.(i) in
        if va == vb then va else f va vb)
  in
  let mem =
    Addr_map.merge
      (fun _ va vb ->
        match (va, vb) with
        | Some va, Some vb -> (
          match if va == vb then va else f va vb with Aval.Top -> None | v -> Some v)
        | Some _, None | None, Some _ | None, None -> None)
      a.mem b.mem
  in
  let origins =
    Array.init 16 (fun i ->
        match (a.origins.(i), b.origins.(i)) with
        | (Some x as o), Some y when x = y -> o
        | _ -> None)
  in
  { regs; mem; origins }

let join a b = merge_with Aval.join a b
let widen a b = merge_with Aval.widen a b

(* Greatest lower bound, used by the octagon escalation to fold relational
   refinements back under the interval result. Unlike [merge_with], an
   absent memory entry (= Top) must keep the other side's entry. *)
let meet a b =
  let regs = Array.init 16 (fun i -> Aval.meet a.regs.(i) b.regs.(i)) in
  let mem = Addr_map.union (fun _ va vb -> Some (Aval.meet va vb)) a.mem b.mem in
  let origins =
    Array.init 16 (fun i ->
        match (a.origins.(i), b.origins.(i)) with
        | (Some _ as o), _ -> o
        | None, o -> o)
  in
  { regs; mem; origins }

let pp ppf t =
  Format.fprintf ppf "@[<v>regs:";
  Array.iteri
    (fun i v ->
      if not (Aval.equal v Aval.top) then
        Format.fprintf ppf " %a=%a" Reg.pp (Reg.of_int i) Aval.pp v)
    t.regs;
  Format.fprintf ppf "@,mem:";
  Addr_map.iter (fun a v -> Format.fprintf ppf " [0x%x]=%a" a Aval.pp v) t.mem;
  Format.fprintf ppf "@]"
