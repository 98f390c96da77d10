(* Operating modes (Section 4.3 of the paper): a flight-control task whose
   two modes have very different costs. A mode-oblivious analysis must
   assume the expensive mode; documenting the mode as design-level
   information (an assume annotation) gives a per-mode bound.

     dune exec examples/flight_modes.exe *)

let source =
  {|
int mode;        /* 0 = on ground, 1 = in air */
int sensor[8];
int out;

int nav_update() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 8; i = i + 1) { s = s + sensor[i]; }
  return s;
}

int flight_control() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 150; i = i + 1) { s = s + i * 2; }
  return s + nav_update();
}

int ground_control() {
  return nav_update() >> 3;
}

int main() {
  if (mode == 1) { out = flight_control(); } else { out = ground_control(); }
  return out;
}
|}

let annot text =
  match Wcet_annot.Annot.parse text with
  | Ok a -> a
  | Error msg -> failwith msg

let () =
  let program = Minic.Compile.compile source in
  (* one analysis per operating mode plus the mode-oblivious one *)
  let reports =
    List.map
      (fun (name, annot) -> (name, Wcet_core.Analyzer.analyze ~annot program))
      [
        ("(all modes)", Wcet_annot.Annot.empty);
        ("flight", annot "assume mode = 1");
        ("ground", annot "assume mode = 0");
      ]
  in
  Format.printf "per-mode WCET bounds (the paper's operating-mode remedy):@.";
  List.iter
    (fun (name, report) ->
      Format.printf "  %-12s %6d cycles@." name report.Wcet_core.Analyzer.wcet)
    reports;
  let observe mode =
    let sim = Pred32_sim.Simulator.create Pred32_hw.Hw_config.default program in
    Pred32_sim.Simulator.poke_symbol sim "mode" 0 mode;
    Pred32_sim.Simulator.halted_cycles (Pred32_sim.Simulator.run sim)
  in
  Format.printf "@.observed: ground %d cycles, flight %d cycles@." (observe 0) (observe 1);
  Format.printf
    "@.A scheduler that knows the plane is on the ground can budget the ground bound — far \
     below the mode-oblivious worst case.@."
