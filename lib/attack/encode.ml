(* The netlist encoder lives in [Sttc_sim.Encode], below both the
   equivalence checker and the attacks.  This name stays because the
   benchmark ledger's [encode.copy] probe (bench/ledger/attack_sat.ml)
   refers to [Sttc_attack.Encode]. *)
include Sttc_sim.Encode
