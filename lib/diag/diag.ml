type severity = Info | Warning | Error

type phase =
  | Frontend
  | Annot
  | Decode
  | Loop_value
  | Cache
  | Pipeline
  | Path
  | Simulation
  | Check
  | Audit
  | Store
  | Serve
  | Obs
  | Internal

type loc = { addr : int option; func : string option; line : int option }

type t = {
  severity : severity;
  phase : phase;
  code : string;
  loc : loc;
  message : string;
  hint : string option;
}

let no_loc = { addr = None; func = None; line = None }
let at_addr ?func addr = { addr = Some addr; func; line = None }
let in_func func = { addr = None; func = Some func; line = None }
let at_line line = { addr = None; func = None; line = Some line }

let make ?hint ?(loc = no_loc) severity phase ~code message =
  { severity; phase; code; loc; message; hint }

let makef ?hint ?loc severity phase ~code fmt =
  Format.kasprintf (fun message -> make ?hint ?loc severity phase ~code message) fmt

let severity_name = function Info -> "info" | Warning -> "warning" | Error -> "error"

let phase_name = function
  | Frontend -> "frontend"
  | Annot -> "annotation"
  | Decode -> "decode"
  | Loop_value -> "loop/value"
  | Cache -> "cache"
  | Pipeline -> "pipeline"
  | Path -> "path"
  | Simulation -> "simulation"
  | Check -> "check"
  | Audit -> "audit"
  | Store -> "cache-store"
  | Serve -> "serve"
  | Obs -> "observability"
  | Internal -> "internal"

(* The stable code registry. Codes are part of the tool's external contract
   (CI and scripts match on them); never renumber, only append. *)
let all_codes =
  [
    ("E0101", "cannot read an input file");
    ("E0102", "lexical error in a MiniC source");
    ("E0103", "syntax error in a MiniC source");
    ("E0104", "type error in a MiniC source");
    ("E0105", "code generation failed");
    ("E0106", "link failed (duplicate/undefined symbols, layout)");
    ("E0107", "assembly parse error");
    ("E0108", "compilation failed");
    ("E0110", "invalid environment variable value");
    ("E0201", "decoding / CFG reconstruction failed");
    ("E0202", "recursive call without a recursion-depth annotation");
    ("E0203", "analysis iteration budget exceeded (did not converge)");
    ("W0301", "unresolved indirect call: callee excluded from the bound");
    ("W0302", "unbounded loop: iterations beyond the first excluded");
    ("W0303", "irreducible region: bounded at one pass per block");
    ("W0304", "unresolved indirect jump: successors excluded");
    ("W0401", "annotation refers to an unknown function (ignored)");
    ("W0402", "annotation refers to an unknown symbol (ignored)");
    ("W0403", "annotation refers to an unknown memory region (ignored)");
    ("E0404", "annotation file does not parse");
    ("E0501", "path analysis infeasible: contradictory flow facts");
    ("E0502", "path analysis unbounded");
    ("E0601", "soundness violation: observed cycles exceed the bound");
    ("W0602", "simulation did not run to completion");
    ("E0603", "memory fault (unmapped/unaligned access or ROM write)");
    ("E0604", "unknown symbol in a poke/peek");
    ("W0610", "analysis cache entry corrupt (evicted, recomputed)");
    ("W0611", "analysis cache entry from another tool version (evicted, recomputed)");
    ("W0612", "analysis cache directory unusable (caching disabled for this run)");
    ("E0701", "fault-injection campaign observed a crash");
    ("D0701", "daemon: frame is not valid JSON");
    ("D0702", "daemon: request is malformed (missing/ill-typed id, method or params)");
    ("D0703", "daemon: deadline exceeded, analysis cancelled (partial reply)");
    ("D0704", "daemon: server overloaded, request not admitted (retry after hint)");
    ("D0705", "daemon: frame exceeds the maximum size (dropped)");
    ("D0706", "daemon: request failed with an unclassified internal error (fault isolated)");
    ("D0707", "daemon: unknown method");
    ("D0708", "daemon: cannot bind or connect to the server socket");
    ("W0701", "daemon watch: source vanished or became unreadable (skipped)");
    ("W0702", "daemon: client disconnected before its reply could be delivered");
    ("W0703", "daemon: request rejected because the server is draining for shutdown");
    ("E0901", "internal error (uncaught exception)");
    ("A0501", "audit: unresolved indirect call (tier-1, paper section 3)");
    ("A0502", "audit: indirect call resolved by value analysis or annotation");
    ("A0503", "audit: unresolved indirect jump (tier-1)");
    ("A0504", "audit: indirect jump resolved by value analysis");
    ("A0505", "audit: loop bound depends on unconstrained input data (tier-1)");
    ("A0506", "audit: loop structure defeats automatic bounding (tier-1)");
    ("A0507", "audit: irreducible control-flow region (tier-1)");
    ("A0508", "audit: operating-mode structure (mode-variable guards, tier-2)");
    ("A0509", "audit: imprecise memory access spanning regions (tier-2)");
    ("A0510", "audit: critical-path blocks never reached in simulation (tier-2)");
    ("A0511", "audit: call into a software-arithmetic routine (tier-2)");
    ("A0512", "audit: block semantically unreachable (MISRA 14.1 variant)");
    ("A0513", "audit: recursion in the call graph (tier-1)");
    ("M1304", "MISRA 13.4: float in a loop-control expression");
    ("M1306", "MISRA 13.6: irregular modification of a loop counter");
    ("M1401", "MISRA 14.1: unreachable code");
    ("M1404", "MISRA 14.4: goto used");
    ("M1405", "MISRA 14.5: continue used");
    ("M1601", "MISRA 16.1: variadic function");
    ("M1602", "MISRA 16.2: recursion (direct or indirect)");
    ("M2004", "MISRA 20.4: dynamic heap allocation");
    ("M2007", "MISRA 20.7: setjmp/longjmp used");
    ("W0801", "trace buffer overflowed: trace file written incomplete");
    ("W0802", "bound ledger: unreadable entry skipped");
    ("E0803", "bound ledger: file unusable or not enough snapshots");
    ("E0804", "slack attribution does not sum to bound minus observed (internal)");
    ("E0805", "slack attribution unavailable (partial bound or simulation did not halt)");
    ("E0806", "bound ledger: bound or precision regression between snapshots");
    ("W0501", "value analysis escalated to the octagon domain (relational pass)");
    ("E0503", "octagon escalation diverged from the interval result (--verify cross-check)");
    ("E0301", "path analysis unbounded: a reachable cycle has no loop bound");
    ("E0302", "path analysis infeasible: contradictory flow facts");
    ("E0303", "path backends disagree beyond attributable slack (soundness bug)");
    ("E0304", "path solution violates the count/time identity (internal)");
    ("E0305", "requested path backend cannot analyse this program");
    ("W0305", "model-checking path backend intractable here (excluded from portfolio)");
    ("W0306", "mc gated off where it would have tightened the bound (--verify precision oracle)");
  ]

let describe code = List.assoc_opt code all_codes

module Exit = struct
  let ok = 0
  let usage = 1
  let analysis = 2
  let misra = 3
  let partial = 4
  let check_failed = 5
  let internal = 70
end

let exit_for d =
  match d.phase with
  | Frontend | Annot -> Exit.usage
  | Decode | Loop_value | Cache | Pipeline | Path -> Exit.analysis
  | Simulation -> Exit.usage
  | Store -> Exit.usage
  | Serve -> Exit.usage
  | Obs -> Exit.usage
  | Check -> Exit.check_failed
  | Audit -> Exit.misra
  | Internal -> Exit.internal

let pp_loc ppf loc =
  let parts =
    List.filter_map
      (fun x -> x)
      [
        Option.map (Printf.sprintf "at 0x%x") loc.addr;
        Option.map (Printf.sprintf "in %s") loc.func;
        Option.map (Printf.sprintf "line %d") loc.line;
      ]
  in
  if parts <> [] then Format.fprintf ppf " (%s)" (String.concat " " parts)

let pp ppf d =
  Format.fprintf ppf "%s[%s] %s: %s%a" (severity_name d.severity) d.code (phase_name d.phase)
    d.message pp_loc d.loc;
  match d.hint with
  | Some hint -> Format.fprintf ppf "@,  hint: %s" hint
  | None -> ()

let pp_list ppf ds =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i d ->
      if i > 0 then Format.fprintf ppf "@,";
      pp ppf d)
    ds;
  Format.fprintf ppf "@]"

let to_json d =
  let opt f = function Some x -> f x | None -> Json.Null in
  Json.Obj
    [
      ("severity", Json.String (severity_name d.severity));
      ("code", Json.String d.code);
      ("phase", Json.String (phase_name d.phase));
      ("addr", opt (fun a -> Json.Int a) d.loc.addr);
      ("func", opt (fun f -> Json.String f) d.loc.func);
      ("line", opt (fun l -> Json.Int l) d.loc.line);
      ("message", Json.String d.message);
      ("hint", opt (fun h -> Json.String h) d.hint);
    ]

type collector = { mutable rev_items : t list }

let collector () = { rev_items = [] }
let add c d = c.rev_items <- d :: c.rev_items
let items c = List.rev c.rev_items

let count sev c =
  List.fold_left (fun n d -> if d.severity = sev then n + 1 else n) 0 c.rev_items

let error_count = count Error
let warning_count = count Warning
let has_errors c = error_count c > 0
