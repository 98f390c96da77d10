let name = "csolve"
let path_sensitive = false
let fact_blind = true
let exact_witness = true

let solve (spec : Path_analysis.spec) loops =
  match Forest.solve spec loops with
  | sol -> Path_analysis.checked ~who:name sol spec.Path_analysis.times
  | exception Forest.Failed e -> Error e
