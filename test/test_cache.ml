(* Cache-model tests: the concrete LRU cache, and the soundness of the
   abstract must/may states against it on random traces (the guarantee that
   makes always-hit/always-miss classifications safe). *)

module Cache_config = Pred32_hw.Cache_config
module Lru = Pred32_hw.Lru_cache
module Acache = Wcet_cache.Acache
module Pcg = Wcet_util.Pcg

let cfg = Cache_config.make ~sets:4 ~assoc:2 ~line_bytes:16

(* --- concrete LRU --- *)

let test_lru_basic () =
  let c = Lru.create cfg in
  Alcotest.(check bool) "first access misses" false (Lru.access c 0);
  Alcotest.(check bool) "second access hits" true (Lru.access c 0);
  Alcotest.(check bool) "different set misses" false (Lru.access c 1);
  Alcotest.(check bool) "still hits" true (Lru.access c 0)

let test_lru_eviction () =
  let c = Lru.create cfg in
  (* lines 0, 4, 8 all map to set 0 (4 sets): 2-way evicts the LRU *)
  ignore (Lru.access c 0);
  ignore (Lru.access c 4);
  Alcotest.(check bool) "0 still in" true (Lru.access c 0);
  ignore (Lru.access c 8);
  (* 4 was LRU, evicted *)
  Alcotest.(check bool) "4 evicted" false (Lru.access c 4);
  (* and that access evicted 0 *)
  Alcotest.(check bool) "0 evicted" false (Lru.access c 0)

let test_lru_probe_no_touch () =
  let c = Lru.create cfg in
  ignore (Lru.access c 0);
  ignore (Lru.access c 4);
  (* probing 0 must not refresh it *)
  Alcotest.(check bool) "probe sees 0" true (Lru.probe c 0);
  ignore (Lru.access c 8);
  Alcotest.(check bool) "0 was still LRU" false (Lru.access c 0)

let test_lru_copy_independent () =
  let c = Lru.create cfg in
  ignore (Lru.access c 0);
  let d = Lru.copy c in
  ignore (Lru.access d 4);
  ignore (Lru.access d 8);
  Alcotest.(check bool) "original unaffected" true (Lru.probe c 0)

(* --- abstract vs concrete soundness --- *)

(* Walk a random trace in both the concrete cache and the abstract state.
   Before every access: if must says present, the concrete access must hit;
   if may says absent, it must miss. *)
let test_abstract_soundness () =
  let rng = Pcg.create ~seed:99L () in
  for _trace = 1 to 200 do
    let concrete = Lru.create cfg in
    let abstract = ref (Acache.empty cfg) in
    for _step = 1 to 100 do
      let line = Pcg.next_int rng 16 in
      let must_hit = Acache.must_contains !abstract line in
      let may_miss = Acache.may_excludes !abstract line in
      let hit = Lru.access concrete line in
      if must_hit && not hit then Alcotest.failf "must-cache lied: line %d missed" line;
      if may_miss && hit then Alcotest.failf "may-cache lied: line %d hit" line;
      abstract := Acache.access !abstract line
    done
  done

(* Joins must stay sound: abstract state joined with anything still only
   promises what both paths guarantee. *)
let test_abstract_join_soundness () =
  let rng = Pcg.create ~seed:123L () in
  for _trace = 1 to 100 do
    (* two prefixes, then a common suffix applied to the join *)
    let concrete = Lru.create cfg in
    let a = ref (Acache.empty cfg) and b = ref (Acache.empty cfg) in
    let take_branch_a = Pcg.next_bool rng in
    for _ = 1 to 20 do
      let line = Pcg.next_int rng 16 in
      let which = Pcg.next_bool rng in
      if which then begin
        a := Acache.access !a line;
        if take_branch_a then ignore (Lru.access concrete line)
      end
      else begin
        b := Acache.access !b line;
        if not take_branch_a then ignore (Lru.access concrete line)
      end
    done;
    let joined = ref (Acache.join !a !b) in
    for _ = 1 to 40 do
      let line = Pcg.next_int rng 16 in
      let must_hit = Acache.must_contains !joined line in
      let may_miss = Acache.may_excludes !joined line in
      let hit = Lru.access concrete line in
      if must_hit && not hit then Alcotest.failf "joined must lied on line %d" line;
      if may_miss && hit then Alcotest.failf "joined may lied on line %d" line;
      joined := Acache.access !joined line
    done
  done

(* access_unknown must keep soundness whatever line was actually touched. *)
let test_unknown_access_soundness () =
  let rng = Pcg.create ~seed:77L () in
  for _trace = 1 to 100 do
    let concrete = Lru.create cfg in
    let abstract = ref (Acache.empty cfg) in
    for _ = 1 to 50 do
      if Pcg.next_int rng 4 = 0 then begin
        (* an access the analysis could not resolve: concrete touches a
           random line, abstract records an unknown access *)
        ignore (Lru.access concrete (Pcg.next_int rng 16));
        abstract := Acache.access_unknown !abstract
      end
      else begin
        let line = Pcg.next_int rng 16 in
        let must_hit = Acache.must_contains !abstract line in
        let may_miss = Acache.may_excludes !abstract line in
        let hit = Lru.access concrete line in
        if must_hit && not hit then Alcotest.failf "must lied after unknown access" ;
        if may_miss && hit then Alcotest.failf "may lied after unknown access";
        abstract := Acache.access !abstract line
      end
    done
  done

let test_must_monotone_leq () =
  (* join is an upper bound under leq *)
  let rng = Pcg.create ~seed:5L () in
  for _ = 1 to 200 do
    let mk () =
      let s = ref (Acache.empty cfg) in
      for _ = 1 to Pcg.next_int rng 20 do
        s := Acache.access !s (Pcg.next_int rng 16)
      done;
      !s
    in
    let a = mk () and b = mk () in
    let j = Acache.join a b in
    Alcotest.(check bool) "a leq join" true (Acache.leq a j);
    Alcotest.(check bool) "b leq join" true (Acache.leq b j);
    let jj = Acache.join j j in
    Alcotest.(check bool) "join idempotent" true (Acache.leq j jj && Acache.leq jj j)
  done

(* --- the set-indexed state against the map-based one it replaced --- *)

(* [Acache] as it was before states were set-indexed: the lines of all
   sets in two [Int]-keyed maps, and every access that is not a no-op
   rebuilds both maps whole. Kept verbatim as the oracle. *)
module Reference = struct
  module Cache_config = Pred32_hw.Cache_config
  module Line_map = Map.Make (Int)

  (* must: line -> maximal possible age (present in every concrete state with
     at most this age). may: line -> minimal possible age; absent lines are
     provably uncached — unless [may_universal] is set (after an unknown
     access nothing can be proven absent). *)
  type t = {
    cfg : Cache_config.t;
    must : int Line_map.t;
    may : int Line_map.t;
    may_universal : bool;
  }

  let empty cfg = { cfg; must = Line_map.empty; may = Line_map.empty; may_universal = false }

  let same_set cfg a b = Cache_config.set_of_line cfg a = Cache_config.set_of_line cfg b

  let rebuild t line =
    let assoc = t.cfg.Cache_config.assoc in
    let old_must_age = match Line_map.find_opt line t.must with Some a -> a | None -> assoc in
    let must =
      Line_map.filter_map
        (fun m age ->
          if m = line then Some 0
          else if same_set t.cfg m line && age < old_must_age then
            if age + 1 >= assoc then None else Some (age + 1)
          else Some age)
        t.must
    in
    let must = Line_map.add line 0 must in
    let old_may_age = match Line_map.find_opt line t.may with Some a -> a | None -> assoc in
    let may =
      Line_map.filter_map
        (fun m age ->
          if m = line then Some 0
          else if same_set t.cfg m line && age <= old_may_age && age + 1 >= assoc then None
          else if same_set t.cfg m line && age <= old_may_age then Some (age + 1)
          else Some age)
        t.may
    in
    let may = Line_map.add line 0 may in
    { t with must; may }

  (* An access to the line that is already youngest in its set changes
     nothing, and three fetches in four are such accesses. Must-age 0 says
     exactly that. Only an access to [line] gives it must-age 0, and that
     access also gives it may-age 0 and ages every other line of the set past
     may-age 0; [join] keeps must-age 0 only where both sides have it, and
     [access_unknown] ages it away. So while [line] has must-age 0 it has
     may-age 0 and no other line of its set does, and [rebuild] would return
     an equal state. *)
  let access t line =
    match Line_map.find_opt line t.must with Some 0 -> t | _ -> rebuild t line

  let access_unknown t =
    (* One unknown line is touched: in every set, any line may age by one;
       nothing new can be proven absent afterwards. *)
    let assoc = t.cfg.Cache_config.assoc in
    let must =
      Line_map.filter_map (fun _ age -> if age + 1 >= assoc then None else Some (age + 1)) t.must
    in
    { t with must; may_universal = true }

  let must_contains t line = Line_map.mem line t.must
  let may_excludes t line = (not t.may_universal) && not (Line_map.mem line t.may)

  let join a b =
    let must =
      Line_map.merge
        (fun _ x y ->
          match (x, y) with
          | Some x, Some y -> Some (max x y)
          | Some _, None | None, Some _ | None, None -> None)
        a.must b.must
    in
    let may =
      Line_map.merge
        (fun _ x y ->
          match (x, y) with
          | Some x, Some y -> Some (min x y)
          | Some x, None -> Some x
          | None, Some y -> Some y
          | None, None -> None)
        a.may b.may
    in
    { cfg = a.cfg; must; may; may_universal = a.may_universal || b.may_universal }

  let leq a b =
    (* a is at least as precise as b *)
    Line_map.for_all
      (fun line age ->
        match Line_map.find_opt line a.must with
        | Some a_age -> a_age <= age
        | None -> false)
      b.must
    && (b.may_universal || (not a.may_universal)
       && Line_map.for_all
            (fun line age ->
              match Line_map.find_opt line b.may with
              | Some b_age -> b_age <= age
              | None -> false)
            a.may)

  let pp ppf t =
    Format.fprintf ppf "must:{";
    Line_map.iter (fun l a -> Format.fprintf ppf " %d@%d" l a) t.must;
    Format.fprintf ppf " } may:{";
    if t.may_universal then Format.fprintf ppf " *"
    else Line_map.iter (fun l a -> Format.fprintf ppf " %d@%d" l a) t.may;
    Format.fprintf ppf " }"
end

module Line_map = Reference.Line_map

let is_noop (t : Reference.t) line =
  let cfg = t.Reference.cfg in
  Line_map.find_opt line t.must = Some 0
  && Line_map.find_opt line t.may = Some 0
  && Line_map.for_all
       (fun m age ->
         m = line || age > 0 || Cache_config.set_of_line cfg m <> Cache_config.set_of_line cfg line)
       t.may

let geometries = [ (16, 2); (4, 4); (8, 1); (1, 8) ]

type op = Unknown | Join | Keep | Access of int

(* Seeded random walks of access / access_unknown / join, on the
   set-indexed state and on [Reference] in lockstep, over every geometry
   in [geometries]: 16×2, 4×4, direct-mapped 8×1 and fully associative
   1×8. About four accesses in ten repeat the previous line, so
   re-accessing the youngest line (the no-op) and evicting from a full set
   both occur often. [step] sees the pool of earlier states, the state
   before the operation, the operation and the state after it. *)
let walk ~seed ~walks ~steps step =
  let rng = Pcg.create ~seed () in
  List.iter
    (fun (sets, assoc) ->
      let cfg = Cache_config.make ~sets ~assoc ~line_bytes:16 in
      let lines = 3 * sets * assoc in
      for _walk = 1 to walks do
        let start = (Acache.empty cfg, Reference.empty cfg) in
        let pool = ref [ start ] and s = ref start and last = ref 0 in
        for _step = 1 to steps do
          let before = !s in
          let (a, r) = before in
          let op =
            match Pcg.next_int rng 20 with
            | 0 -> Unknown
            | 1 -> Join
            | 2 -> Keep
            | k ->
              let line = if k < 10 then !last else Pcg.next_int rng lines in
              last := line;
              Access line
          in
          (match op with
          | Unknown -> s := (Acache.access_unknown a, Reference.access_unknown r)
          | Join ->
            let a', r' = List.nth !pool (Pcg.next_int rng (List.length !pool)) in
            s := (Acache.join a a', Reference.join r r')
          | Keep -> pool := before :: !pool
          | Access line -> s := (Acache.access a line, Reference.access r line));
          step ~cfg ~lines !pool before op !s
        done
      done)
    geometries

let show (a, r) = Format.asprintf "%a / %a" Acache.pp a Reference.pp r

(* The set-indexed state and the reference state say the same: the same
   classification of every line, the same must bindings, the same may
   bindings while may is not universal, and [leq] both ways against
   [others] as the reference orders them. *)
let agree ~cfg ~lines (a, r) others =
  let fail what = Alcotest.failf "%a: %s differs on %s" Cache_config.pp cfg what (show (a, r)) in
  for line = 0 to lines - 1 do
    if Acache.must_contains a line <> Reference.must_contains r line then fail "must_contains";
    if Acache.may_excludes a line <> Reference.may_excludes r line then fail "may_excludes"
  done;
  if Acache.must_bindings a <> Line_map.bindings r.Reference.must then fail "must bindings";
  if Acache.may_universal a <> r.Reference.may_universal then fail "may_universal";
  if Acache.may_bindings a <> if r.may_universal then [] else Line_map.bindings r.may then
    fail "may bindings";
  List.iter
    (fun (a', r') ->
      if Acache.leq a a' <> Reference.leq r r' then fail ("leq against " ^ show (a', r'));
      if Acache.leq a' a <> Reference.leq r' r then fail ("geq against " ^ show (a', r')))
    others

let set_sizes cfg bindings =
  let sizes = Array.make cfg.Cache_config.sets 0 in
  List.iter
    (fun (line, _) ->
      let i = Cache_config.set_of_line cfg line in
      sizes.(i) <- sizes.(i) + 1)
    bindings;
  sizes

(* After every step the set-indexed state agrees with the reference, also
   against every earlier state and the state before the step. The must
   part of a set never holds more than [assoc] lines; a may part larger
   than [assoc] must occur. An access shares every set but its own
   physically with its argument. *)
let test_set_indexed_vs_reference () =
  let wide_may = ref 0 and shared = ref 0 in
  walk ~seed:1847L ~walks:60 ~steps:80 (fun ~cfg ~lines pool before op after ->
      let assoc = cfg.Cache_config.assoc in
      agree ~cfg ~lines after (before :: pool);
      if Array.exists (fun n -> n > assoc) (set_sizes cfg (Acache.must_bindings (fst after)))
      then Alcotest.failf "must part above assoc: %s" (show after);
      if Array.exists (fun n -> n > assoc) (set_sizes cfg (Acache.may_bindings (fst after)))
      then incr wide_may;
      match op with
      | Access line ->
        let accessed = Cache_config.set_of_line cfg line in
        for i = 0 to cfg.Cache_config.sets - 1 do
          if i <> accessed then
            if Acache.set (fst after) i == Acache.set (fst before) i then incr shared
            else Alcotest.failf "access %d rewrote set %d: %s" line i (show before)
        done
      | Unknown | Join | Keep -> ());
  Alcotest.(check bool) "a may part above assoc occurs" true (!wide_may > 0);
  Alcotest.(check bool) "untouched sets shared" true (!shared > 0)

(* Every access agrees with the reference's full rebuild, and returns its
   argument physically exactly in the no-op case [is_noop] spells out in
   full ([Acache.access] tests must-age 0 alone, relying on the invariant
   that implies the rest). *)
let test_fast_path_vs_rebuild () =
  let noops = ref 0 and rebuilds = ref 0 in
  walk ~seed:1103L ~walks:50 ~steps:60 (fun ~cfg ~lines:_ _pool before op after ->
      match op with
      | Access line ->
        let a, r = before in
        let rebuilt = Reference.rebuild r line in
        if
          Acache.must_bindings (fst after) <> Line_map.bindings rebuilt.must
          || (not r.may_universal)
             && Acache.may_bindings (fst after) <> Line_map.bindings rebuilt.may
        then
          Alcotest.failf "%a: access %d from %s gave %a" Cache_config.pp cfg line
            (show before) Acache.pp (fst after);
        let noop = is_noop r line in
        if noop <> (fst after == a) then
          Alcotest.failf "%a: access %d from %s: no-op %b but returned %s" Cache_config.pp cfg
            line (show before) noop
            (if fst after == a then "its argument" else "a new state");
        incr (if noop then noops else rebuilds)
      | Unknown | Join | Keep -> ());
  Alcotest.(check bool) "both paths exercised" true (!noops > 500 && !rebuilds > 500)

(* [join a b] is [a] itself whenever [leq b a], and otherwise agrees with
   the reference join, over every pair of a state and an earlier one. *)
let test_join_sharing () =
  let shared = ref 0 and joined = ref 0 in
  walk ~seed:3301L ~walks:30 ~steps:50 (fun ~cfg ~lines pool _before _op (a, r) ->
      List.iter
        (fun (b, rb) ->
          List.iter
            (fun ((x, rx), (y, ry)) ->
              let j = Acache.join x y in
              if Acache.leq y x then begin
                if j != x then
                  Alcotest.failf "%a: join %s %s is not its first argument" Cache_config.pp cfg
                    (show (x, rx)) (show (y, ry));
                incr shared
              end;
              agree ~cfg ~lines (j, Reference.join rx ry) [];
              incr joined)
            [ ((a, r), (b, rb)); ((b, rb), (a, r)) ])
        pool);
  Alcotest.(check bool) "both cases exercised" true (!shared > 200 && !joined - !shared > 200)

(* States read back with [Marshal] share nothing with the states they were
   written from, so [leq] must hold structurally, not just by the
   physical-equality shortcut, and every line classifies the same. *)
let test_marshal_round_trip () =
  let compared = ref 0 in
  walk ~seed:2203L ~walks:10 ~steps:40 (fun ~cfg ~lines pool _before _op (a, _) ->
      let copy : Acache.t = Marshal.from_string (Marshal.to_string a []) 0 in
      if not (Acache.leq a copy && Acache.leq copy a)
      then Alcotest.failf "%a: marshaled copy differs from %a" Cache_config.pp cfg Acache.pp a;
      for line = 0 to lines - 1 do
        if
          Acache.must_contains a line <> Acache.must_contains copy line
          || Acache.may_excludes a line <> Acache.may_excludes copy line
        then Alcotest.failf "%a: marshaled copy classifies line %d differently" Cache_config.pp cfg line
      done;
      List.iter
        (fun (b, _) ->
          if Acache.leq a b <> Acache.leq copy b || Acache.leq b a <> Acache.leq b copy then
            Alcotest.failf "%a: marshaled copy compares differently" Cache_config.pp cfg;
          incr compared)
        pool);
  Alcotest.(check bool) "states compared" true (!compared > 1000)

(* --- cache facts --- *)

module Analyzer = Wcet_core.Analyzer
module Analysis = Wcet_value.Analysis
module CA = Wcet_cache.Cache_analysis
module Persistence = Wcet_cache.Persistence
module Block_timing = Wcet_pipeline.Block_timing
module Corpus = Wcet_corpus.Corpus

(* One line of what the cache, persistence and pipeline phases concluded
   about a program under the CLI's default domain: fetch and data class
   counts (always-hit, always-miss, not-classified, bypass), persistence
   promotions (fetch, data) and the summed one-time charges, the value,
   cache and octagon transfer counts, and the summed block wcet and bcet;
   or the codes of a failed analysis. *)
let cache_facts name ~hw ~annot program =
  match Analyzer.analyze ~hw ~annot ~domain:Analysis.Auto program with
  | exception Analyzer.Analysis_failed ds ->
    Printf.sprintf "%s failed %s" name
      (String.concat "," (List.map (fun (d : Wcet_diag.Diag.t) -> d.Wcet_diag.Diag.code) ds))
  | r ->
  let counts = Array.make 8 0 in
  let slot = function CA.Always_hit -> 0 | CA.Always_miss -> 1 | CA.Not_classified -> 2 | CA.Bypass -> 3 in
  let bump i = counts.(i) <- counts.(i) + 1 in
  Array.iter (Array.iter (fun c -> bump (slot c))) r.Analyzer.cache.CA.fetch;
  Array.iter (Array.iter (fun c -> bump (4 + slot c))) r.Analyzer.cache.CA.data;
  let p = Persistence.compute r.Analyzer.hw r.Analyzer.value r.Analyzer.loops r.Analyzer.cache in
  let fetch_promoted, data_promoted = Persistence.promotions p in
  let sum = Array.fold_left ( + ) 0 in
  Printf.sprintf "%s fetch %d/%d/%d/%d data %d/%d/%d/%d persist %d/%d/%d transfers %d/%d/%d wcet %d bcet %d"
    name counts.(0) counts.(1) counts.(2) counts.(3) counts.(4) counts.(5) counts.(6) counts.(7)
    fetch_promoted data_promoted (sum p.Persistence.entry_extra)
    r.Analyzer.value.Analysis.transfers r.Analyzer.cache.CA.transfers
    (match r.Analyzer.escalation with Some e -> e.Analyzer.ei_transfers | None -> 0)
    (sum r.Analyzer.timing.Block_timing.wcet) (sum r.Analyzer.timing.Block_timing.bcet)

(* [main] escalates to the octagon, which proves the call to [f]
   infeasible; [f] is not escalated, so the value analysis still reaches
   its nodes while the cache solve, which follows only feasible edges,
   does not: their loads stay without a classification. *)
let escalation_cut =
  {|int n;
int buf[80];
int out;
int sink[4];

int f(int a) {
  int k;
  int s;
  s = 0;
  for (k = 0; k < 4; k = k + 1) {
    s = s + sink[k] + a;
  }
  return s;
}

int main() {
  int i;
  int j;
  int s;
  s = 0;
  i = 0;
  while (i != n) {
    j = n - i;
    s = s + buf[j];
    i = i + 1;
  }
  if (i > n) {
    s = s + f(s);
  }
  out = s;
  return s;
}
|}

(* Every corpus scenario (both variants, automatic and assisted), every
   examples/*.mc with its .annot when it has one, and [escalation_cut]. *)
let all_cache_facts () =
  let corpus =
    List.concat_map
      (fun (e : Corpus.entry) ->
        List.concat_map
          (fun (variant, (s : Corpus.scenario)) ->
            let program = Minic.Compile.compile ~options:s.Corpus.options s.Corpus.source in
            List.map
              (fun (mode, annot) ->
                cache_facts
                  (Printf.sprintf "corpus/%s/%s/%s" e.Corpus.id variant mode)
                  ~hw:s.Corpus.hw ~annot program)
              [ ("automatic", Wcet_annot.Annot.empty); ("assisted", s.Corpus.annotations program) ])
          [ ("conforming", e.Corpus.conforming); ("violating", e.Corpus.violating) ])
      Corpus.all
  in
  let examples =
    Sys.readdir Examples_dir.dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.map (fun f ->
           let read f = In_channel.with_open_bin (Examples_dir.file f) In_channel.input_all in
           let annot_file = Filename.chop_suffix f ".mc" ^ ".annot" in
           let annot =
             if Sys.file_exists (Examples_dir.file annot_file) then
               match Wcet_annot.Annot.parse (read annot_file) with
               | Ok a -> a
               | Error e -> Alcotest.failf "%s: %s" annot_file e
             else Wcet_annot.Annot.empty
           in
           cache_facts ("examples/" ^ f) ~hw:Pred32_hw.Hw_config.default ~annot
             (Minic.Compile.compile (read f)))
  in
  let cut =
    match Wcet_annot.Annot.parse "assume n in [ 0 64 ]\n" with
    | Ok annot ->
      cache_facts "fixture/escalation_cut" ~hw:Pred32_hw.Hw_config.default ~annot
        (Minic.Compile.compile escalation_cut)
    | Error e -> Alcotest.fail e
  in
  corpus @ examples @ [ cut ]

(* The golden file pins these facts, so a change to how the phases compute
   them that should not alter a result shows it did not. *)
let test_cache_facts_pinned () =
  let golden =
    In_channel.with_open_bin (Examples_dir.beside "cache_facts.golden") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "cache facts" golden (all_cache_facts ())

(* --- cache config --- *)

let test_config_lines () =
  Alcotest.(check int) "line of addr" 2 (Cache_config.line_of_addr cfg 0x20);
  Alcotest.(check (list int)) "range lines" [ 1; 2 ]
    (Cache_config.lines_of_range cfg ~addr:0x1C ~size:8);
  Alcotest.(check int) "set wraps" (Cache_config.set_of_line cfg 0)
    (Cache_config.set_of_line cfg 4);
  Alcotest.(check int) "capacity" 128 (Cache_config.capacity_bytes cfg)

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Alcotest.test_case "basic hit/miss" `Quick test_lru_basic;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction;
          Alcotest.test_case "probe does not touch" `Quick test_lru_probe_no_touch;
          Alcotest.test_case "copy independence" `Quick test_lru_copy_independent;
        ] );
      ( "abstract",
        [
          Alcotest.test_case "must/may sound on traces" `Quick test_abstract_soundness;
          Alcotest.test_case "join sound" `Quick test_abstract_join_soundness;
          Alcotest.test_case "unknown access sound" `Quick test_unknown_access_soundness;
          Alcotest.test_case "lattice laws" `Quick test_must_monotone_leq;
          Alcotest.test_case "no-op access vs full rebuild" `Quick test_fast_path_vs_rebuild;
          Alcotest.test_case "set-indexed vs map reference" `Quick test_set_indexed_vs_reference;
          Alcotest.test_case "marshal round trip" `Quick test_marshal_round_trip;
          Alcotest.test_case "join shares its first argument" `Quick test_join_sharing;
        ] );
      ("config", [ Alcotest.test_case "geometry" `Quick test_config_lines ]);
      ("facts", [ Alcotest.test_case "cache facts pinned" `Quick test_cache_facts_pinned ]);
    ]
