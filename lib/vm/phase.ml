(* Run phases shared by both VMs; see the .mli. *)

open Support

type inj = {
  mutable countdown : int;
  rng : Rng.t;
  model : Fault_model.t;
  forced_bit : int;
  mutable cap_i : int;
  mutable cap_f : float;
}

type fwd = { mutable ff_stop : int; mutable matched : int }

type 'e t =
  | Plain
  | Counting of int array
  | Counting_sites of int array
  | Injecting of inj
  | Forward of fwd
  | Enumerate of 'e

let injecting ~countdown ~rng (f : Fault_model.fault) =
  Injecting
    {
      countdown;
      rng;
      model = f.model;
      forced_bit = Option.value f.forced_bit ~default:(-1);
      cap_i = 0;
      cap_f = 0.0;
    }

let forward () = { ff_stop = -1; matched = 0 }

let skip_capture = function
  | Injecting inj -> inj.model = Fault_model.Skip
  | _ -> false

let traced name ~target f =
  if Obs.Trace.on () then
    Obs.Trace.span name ~args:[ ("target", string_of_int target) ] f
  else f ()

let draw_bit inj w =
  if inj.forced_bit >= 0 then inj.forced_bit else Rng.int inj.rng w
