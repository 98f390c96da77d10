(* Summary slices and the one accounting path of the component-scheduled
   value and cache analyses.

   A slice is what the persistent store replays: per node, the engine row
   (the external input the node's component received when it was recorded
   and the converged (in, out) states) and, for the value analysis, the
   frame-linkage words the node registered while transferring.
   Fixpoint.Make.solve_plan applies a component from rows exactly when
   every member has one and the delivered external input semantically
   equals the recorded one — the "honest key" contract: the store key
   covers the code, the engine's input check covers the caller-supplied
   dataflow the key cannot. *)

module Supergraph = Wcet_cfg.Supergraph
module Fixpoint = Wcet_util.Fixpoint
module Metrics = Wcet_obs.Metrics
module Trace = Wcet_obs.Trace

type slice = {
  rows : int -> State.t Fixpoint.row option;
  linkage : int -> int list;
}

(* What a scheduled run records, for persisting rows. *)
type info = { ext_input : State.t option array; node_linkage : int list array }

let equal_state a b = State.leq a b && State.leq b a

type analysis = Value | Cache

type metrics = {
  name : string;
  computes : Metrics.counter;
  hits : Metrics.counter;
  scc_transfers : Metrics.histogram;
}

let metrics name =
  let labels = [ ("analysis", name) ] in
  {
    name;
    computes =
      Metrics.counter ~labels ~name:"summary_computes"
        ~help:("Components solved by iteration in the scheduled " ^ name ^ " analysis") ();
    hits =
      Metrics.counter ~labels ~name:"summary_hits"
        ~help:("Components applied from recorded summary rows in the " ^ name ^ " analysis") ();
    scc_transfers =
      Metrics.histogram ~labels ~name:"summary_scc_transfers"
        ~help:("Transfer count per solved component of the scheduled " ^ name ^ " analysis")
        ~buckets:[| 0; 1; 2; 4; 8; 16; 32; 64; 128; 256 |] ();
  }

let value_metrics = metrics "value"
let cache_metrics = metrics "cache"

(* Solved components are counted and observed, and each gets one
   retrospective "scc" span (trace-only bookkeeping; durations are not
   meaningful, the attributes are). *)
let account analysis (graph : Supergraph.t) (plan : Fixpoint.plan) (info : _ Fixpoint.plan_info) =
  let m = match analysis with Value -> value_metrics | Cache -> cache_metrics in
  let computed = ref 0 and applied = ref 0 in
  Array.iteri
    (fun cid members ->
      let transfers = info.Fixpoint.per_comp_transfers.(cid) in
      if info.Fixpoint.applied.(cid) then incr applied
      else if transfers > 0 then begin
        incr computed;
        Metrics.observe m.scc_transfers transfers;
        if Wcet_obs.Obs.on () then begin
          let funcs =
            List.sort_uniq compare
              (Array.to_list
                 (Array.map (fun v -> graph.Supergraph.nodes.(v).Supergraph.func) members))
          in
          Trace.with_span ~cat:"summary"
            ~attrs:
              [
                ("analysis", Trace.Str m.name);
                ("funcs", Trace.Str (String.concat "," funcs));
                ("nodes", Trace.Int (Array.length members));
                ("transfers", Trace.Int transfers);
              ]
            "scc"
            (fun () -> ())
        end
      end)
    plan.Fixpoint.plan_comps;
  Metrics.incr m.computes !computed;
  Metrics.incr m.hits !applied
