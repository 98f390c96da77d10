type run = {
  r_name : string;
  r_path_sensitive : bool;
  r_fact_blind : bool;
  r_exact_witness : bool;
  r_outcome : (Path_analysis.solution, Path_analysis.error) result;
  r_wall_us : int;
}

type result = {
  p_runs : run list;
  p_oracles : run list;
  p_best : (string * Path_analysis.solution) option;
  p_disagreements : string list;
  p_intractable : string list;
}

(* One span per backend, [path.<name>]; with tracing off no span name is
   built. *)
let run_one (spec : Path_analysis.spec) loops (module B : Path_analysis.BACKEND) =
  let t0 = Wcet_util.Mono_clock.now () in
  let outcome =
    if Wcet_obs.Obs.on () then
      Wcet_obs.Trace.with_span ~cat:"path" ("path." ^ B.name) (fun () -> B.solve spec loops)
    else B.solve spec loops
  in
  let wall_us = int_of_float ((Wcet_util.Mono_clock.now () -. t0) *. 1e6) in
  Path_analysis.record_solve ~backend:B.name ~us:wall_us;
  {
    r_name = B.name;
    r_path_sensitive = B.path_sensitive;
    r_fact_blind = B.fact_blind;
    r_exact_witness = B.exact_witness;
    r_outcome = outcome;
    r_wall_us = wall_us;
  }

let bound r = match r.r_outcome with Ok s -> Some s.Path_analysis.wcet | Error _ -> None

let cross_check ~witness_check ~no_facts runs =
  let complete = List.filter (fun r -> Result.is_ok r.r_outcome) runs in
  let bound_of r = match bound r with Some b -> b | None -> assert false in
  let bad = ref [] in
  let flag fmt = Format.kasprintf (fun s -> bad := s :: !bad) fmt in
  (* Fact-blind, non-path-sensitive backends must dominate IPET. *)
  (match List.find_opt (fun r -> r.r_name = "ipet") complete with
  | Some ipet ->
    let ib = bound_of ipet in
    List.iter
      (fun r ->
        if r.r_fact_blind && (not r.r_path_sensitive) && bound_of r < ib then
          flag
            "%s bound %d undercuts the IPET bound %d, yet it ignores facts and prunes no \
             paths"
            r.r_name (bound_of r) ib)
      complete
  | None -> ());
  (* mc explores a subset of csolve's paths under the same weights. *)
  (match
     ( List.find_opt (fun r -> r.r_name = "mc") complete,
       List.find_opt (fun r -> r.r_name = "csolve") complete )
   with
  | Some mc, Some cs ->
    if bound_of mc > bound_of cs then
      flag "mc bound %d exceeds the csolve bound %d on the same structural model"
        (bound_of mc) (bound_of cs)
  | _ -> ());
  (* On a fact-free spec, IPET's forest answer must be the simplex optimum. *)
  (match
     ( List.find_opt (fun r -> r.r_name = "ipet") complete,
       List.find_opt (fun r -> r.r_name = "simplex") complete )
   with
  | Some ipet, Some lp when no_facts && bound_of ipet <> bound_of lp ->
    flag "ipet bound %d differs from the simplex bound %d on a fact-free spec"
      (bound_of ipet) (bound_of lp)
  | _ -> ());
  (* Witness check, fact-free: no complete backend may undercut a certified
     witness it must account for. *)
  if witness_check && no_facts then begin
    let witnesses = List.filter (fun r -> r.r_exact_witness) complete in
    let wit_of pred =
      List.fold_left
        (fun acc r ->
          if pred r then
            match acc with
            | Some (b0, _) when b0 >= bound_of r -> acc
            | _ -> Some (bound_of r, r.r_name)
          else acc)
        None witnesses
    in
    let wit_semantic = wit_of (fun r -> r.r_path_sensitive) in
    let wit_structural = wit_of (fun _ -> true) in
    List.iter
      (fun r ->
        let w = if r.r_path_sensitive then wit_semantic else wit_structural in
        match w with
        | Some (wb, wname) when bound_of r < wb ->
          flag "%s bound %d undercuts the certified %s witness path of cost %d" r.r_name
            (bound_of r) wname wb
        | _ -> ())
      complete
  end;
  List.rev !bad

let run ?oracles ~backends (spec : Path_analysis.spec) loops =
  let all_runs = List.map (run_one spec loops) (backends @ Option.value oracles ~default:[]) in
  let racing = List.length backends in
  let runs = List.filteri (fun i _ -> i < racing) all_runs in
  let oracle_runs = List.filteri (fun i _ -> i >= racing) all_runs in
  let complete = List.filter (fun r -> Result.is_ok r.r_outcome) runs in
  let best =
    (* tightest bound; ties prefer IPET so counts stay stable for explain *)
    List.fold_left
      (fun acc r ->
        match r.r_outcome with
        | Error _ -> acc
        | Ok s -> (
          match acc with
          | Some (name0, s0) ->
            let b0 = s0.Path_analysis.wcet and b = s.Path_analysis.wcet in
            if b < b0 || (b = b0 && r.r_name = "ipet" && name0 <> "ipet") then
              Some (r.r_name, s)
            else acc
          | None -> Some (r.r_name, s)))
      None runs
  in
  (match best with
  | Some (name, _) when List.length complete > 1 -> Path_analysis.record_win ~backend:name
  | _ -> ());
  let disagreements =
    cross_check ~witness_check:(oracles <> None) ~no_facts:(spec.Path_analysis.facts = [])
      all_runs
  in
  if disagreements <> [] then Path_analysis.record_disagreement ();
  let intractable =
    List.filter_map
      (fun r ->
        match r.r_outcome with
        | Error e when e.Path_analysis.err_code = "E0305" -> Some r.r_name
        | _ -> None)
      runs
  in
  if intractable <> [] then Path_analysis.record_intractable ();
  {
    p_runs = runs;
    p_oracles = oracle_runs;
    p_best = best;
    p_disagreements = disagreements;
    p_intractable = intractable;
  }
