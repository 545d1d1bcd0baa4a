(* User/kernel boundary costs for the DIGITAL UNIX model.  "Each packet
   sent involves a trap and a copy-in as the data moves across the
   user/kernel boundary.  In the worst case, the receive side must
   schedule the user process, copy the packet to userspace, and
   context-switch." *)

let copy_cost (costs : Netsim.Costs.t) len =
  Sim.Stime.add costs.os.copy_fixed
    (Netsim.Costs.per_byte costs.layer.copy_ns_per_byte len)

(* Enter the kernel from user space with [len] bytes of argument data,
   then run [k] in kernel context. *)
let enter cpu (costs : Netsim.Costs.t) ~len k =
  Sim.Cpu.submit cpu Sim.Cpu.Thread
    ~cost:(Sim.Stime.add costs.os.trap (copy_cost costs len))
    k
