(* Quickstart: compile a MiniC task, compute its WCET bound, and compare
   against simulated executions.

     dune exec examples/quickstart.exe *)

let source =
  {|
int sensor[4];
int out;

int filter(int x) {
  if (x < 0) { return 0; }
  if (x > 100) { return 100; }
  return x;
}

int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 4; i = i + 1) {
    s = s + filter(sensor[i]);
  }
  out = s;
  return s;
}
|}

let () =
  (* 1. Compile to a linked PRED32 program. *)
  let program = Minic.Compile.compile source in
  Format.printf "compiled: %d functions, text 0x%x..0x%x@."
    (List.length program.Pred32_asm.Program.functions)
    program.Pred32_asm.Program.text_base program.Pred32_asm.Program.text_limit;

  (* 2. Static analysis: all the phases of the paper's Figure 1. *)
  let report = Wcet_core.Analyzer.analyze program in
  Format.printf "@.%a@." Wcet_core.Analyzer.pp_report (Wcet_core.Analyzer.answer report);

  (* 3. Simulate a few input vectors and compare. *)
  let observe inputs =
    let sim = Pred32_sim.Simulator.create Pred32_hw.Hw_config.default program in
    List.iteri (fun i v -> Pred32_sim.Simulator.poke_symbol sim "sensor" i v) inputs;
    Pred32_sim.Simulator.halted_cycles (Pred32_sim.Simulator.run sim)
  in
  let cases = [ [ 1; 2; 3; 4 ]; [ -5; 200; 50; 0 ]; [ 100; 100; 100; 100 ] ] in
  List.iter
    (fun inputs ->
      let cycles = observe inputs in
      Format.printf "observed %5d cycles (bound %d) for sensors %s@." cycles
        report.Wcet_core.Analyzer.wcet
        (String.concat ", " (List.map string_of_int inputs)))
    cases;
  Format.printf "@.The bound dominates every run, as it must.@."
