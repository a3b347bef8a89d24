// Lint fixture: a qualified call whose spelling matches only some of the
// functions sharing its last name component. `Sock::Close` resolves to
// A::Sock::Close and B::Sock::Close, both balanced and non-blocking;
// Vnode::Close sleeps, but no `Sock::Close` call can reach it, so raising
// the level around the call is clean. Not compiled — parsed by lint_test.

#include "kern/kernel.h"

void A::Sock::Close(Kernel& k) {
  const int s = k.spl().splnet();
  k.spl().splx(s);
}

void B::Sock::Close(Kernel& k) {
  const int s = k.spl().splnet();
  k.spl().splx(s);
}

void Vnode::Close(Kernel& k) { k.sched().Tsleep(&k, 0); }

void Caller(Kernel& k) {
  const int s = k.spl().splnet();
  Sock::Close(k);
  k.spl().splx(s);
}
