module Metrics = Wcet_obs.Metrics

type fact = { fact_coeffs : (int * int) list; fact_bound : int; fact_label : string }

type spec = {
  value : Wcet_value.Analysis.result;
  times : int array;
  loop_bounds : (int * int) list;
  facts : fact list;
}

type solution = { wcet : int; node_counts : int array }
type error = { err_code : string; err_detail : string }

let unbounded d = { err_code = "E0301"; err_detail = d }
let infeasible d = { err_code = "E0302"; err_detail = d }
let intractable d = { err_code = "E0305"; err_detail = d }
let internal d = { err_code = "E0304"; err_detail = d }

module type BACKEND = sig
  val name : string
  val path_sensitive : bool
  val fact_blind : bool
  val exact_witness : bool
  val solve : spec -> Wcet_cfg.Loops.info -> (solution, error) result
end

type choice = Ipet | Portfolio

let choice_name = function Ipet -> "ipet" | Portfolio -> "portfolio"

let check_identity (sol : solution) (times : int array) =
  let total = ref 0 in
  Array.iteri
    (fun v c -> if v < Array.length times then total := !total + (c * times.(v)))
    sol.node_counts;
  if !total = sol.wcet then Ok () else Error (sol.wcet - !total)

let checked ~who sol times =
  match check_identity sol times with
  | Ok () -> Ok sol
  | Error d -> Error (internal (Printf.sprintf "%s count/time identity off by %d cycles" who d))

(* Per-backend observability. Registered once at module initialization;
   injected test backends fall through to no-ops. *)

let solve_buckets = [| 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000 |]

let backend_cells =
  List.map
    (fun b ->
      ( b,
        ( Metrics.counter
            ~labels:[ ("backend", b) ]
            ~name:"path_solves" ~help:"Path-analysis problems solved, by backend" (),
          Metrics.histogram
            ~labels:[ ("backend", b) ]
            ~name:"path_solve_us" ~help:"Path-analysis solve wall time (us), by backend"
            ~buckets:solve_buckets () ) ))
    [ "ipet"; "mc"; "csolve"; "simplex" ]

(* csolve and the simplex are only [--verify]'s oracles and never race, so
   only the portfolio's racers have a win counter. *)
let win_cells =
  List.map
    (fun b ->
      ( b,
        Metrics.counter
          ~labels:[ ("backend", b) ]
          ~name:"path_portfolio_wins"
          ~help:"Portfolio runs where this backend supplied the tightest sound bound" () ))
    [ "ipet"; "mc" ]

let m_intractable =
  Metrics.counter ~name:"path_mc_intractable"
    ~help:"Model-checking backend runs that hit the exploration budget" ()

let m_disagreements =
  Metrics.counter ~name:"path_disagreements"
    ~help:"Portfolio cross-checks that found backends disagreeing (E0303)" ()

let record_solve ~backend ~us =
  match List.assoc_opt backend backend_cells with
  | Some (c, h) ->
    Metrics.incr c 1;
    Metrics.observe h us
  | None -> ()

let record_win ~backend =
  match List.assoc_opt backend win_cells with Some w -> Metrics.incr w 1 | None -> ()

let record_intractable () = Metrics.incr m_intractable 1
let record_disagreement () = Metrics.incr m_disagreements 1
