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
    Alcotest.(check bool) "join idempotent" true (Acache.equal j (Acache.join j j))
  done

(* --- the no-op fast path against the full rebuild --- *)

module Line_map = Acache.Line_map

(* [Acache.access] as it was before the fast path: rebuild both maps on
   every access. Returns the (must, may) maps it would produce. *)
let reference_access (t : Acache.t) line =
  let cfg = t.Acache.cfg in
  let assoc = cfg.Cache_config.assoc in
  let same_set a b = Cache_config.set_of_line cfg a = Cache_config.set_of_line cfg b in
  let old_must_age = match Line_map.find_opt line t.must with Some a -> a | None -> assoc in
  let must =
    Line_map.filter_map
      (fun m age ->
        if m = line then Some 0
        else if same_set m line && age < old_must_age then
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
        else if same_set m line && age <= old_may_age && age + 1 >= assoc then None
        else if same_set m line && age <= old_may_age then Some (age + 1)
        else Some age)
      t.may
  in
  (must, Line_map.add line 0 may)

let is_noop (t : Acache.t) line =
  let cfg = t.Acache.cfg in
  Line_map.find_opt line t.must = Some 0
  && Line_map.find_opt line t.may = Some 0
  && Line_map.for_all
       (fun m age ->
         m = line || age > 0 || Cache_config.set_of_line cfg m <> Cache_config.set_of_line cfg line)
       t.may

(* Random walks of access / access_unknown / join over two geometries.
   About four accesses in ten repeat the previous line, so re-accessing
   the youngest line (the fast path) and evicting from a full set both
   occur often. Every access must agree with the rebuild, and must return
   its argument physically exactly in the no-op case [is_noop] spells out
   in full ([Acache.access] tests must-age 0 alone, relying on the
   invariant that implies the rest). *)
let test_fast_path_vs_rebuild () =
  let rng = Pcg.create ~seed:1103L () in
  let noops = ref 0 and rebuilds = ref 0 in
  List.iter
    (fun (sets, assoc) ->
      let cfg = Cache_config.make ~sets ~assoc ~line_bytes:16 in
      let lines = 3 * sets * assoc in
      for _walk = 1 to 100 do
        let pool = ref [ Acache.empty cfg ] in
        let s = ref (Acache.empty cfg) and last = ref 0 in
        for _step = 1 to 60 do
          match Pcg.next_int rng 20 with
          | 0 -> s := Acache.access_unknown !s
          | 1 ->
            s := Acache.join !s (List.nth !pool (Pcg.next_int rng (List.length !pool)))
          | 2 -> pool := !s :: !pool
          | k ->
            let line = if k < 10 then !last else Pcg.next_int rng lines in
            last := line;
            let after = Acache.access !s line in
            let must, may = reference_access !s line in
            if
              not
                (Line_map.equal Int.equal after.Acache.must must
                && Line_map.equal Int.equal after.Acache.may may
                && after.Acache.may_universal = !s.Acache.may_universal)
            then
              Alcotest.failf "%dx%d: access %d from %s gave %s" sets assoc line
                (Format.asprintf "%a" Acache.pp !s)
                (Format.asprintf "%a" Acache.pp after);
            let noop = is_noop !s line in
            if noop <> (after == !s) then
              Alcotest.failf "%dx%d: access %d from %s: no-op %b but returned %s" sets assoc
                line
                (Format.asprintf "%a" Acache.pp !s)
                noop
                (if after == !s then "its argument" else "a new state");
            incr (if noop then noops else rebuilds);
            s := after
        done
      done)
    [ (16, 2); (4, 4) ];
  Alcotest.(check bool) "both paths exercised" true (!noops > 500 && !rebuilds > 500)

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
        ] );
      ("config", [ Alcotest.test_case "geometry" `Quick test_config_lines ]);
    ]
