// Config-coverage fixture: skylint's lexer skips preprocessor directive
// *lines* but lexes the code in BOTH branches of an #ifdef, so a violation
// inside an `#ifdef` on a macro the build never defines is still found. One
// compilation database therefore covers code under any compile-time
// switch.
#define SKYLOFT_MAY_SWITCH
#define SKYLOFT_ACQUIRES(l)
#define SKYLOFT_RELEASES(l)

SKYLOFT_ACQUIRES(sq_lock) void SqLock();
SKYLOFT_RELEASES(sq_lock) void SqUnlock();
SKYLOFT_MAY_SWITCH void ParkUntilCqe();

#ifdef SKYLINT_FIXTURE_UNDEFINED
void SubmitAndWait() {
  SqLock();
  ParkUntilCqe();  // expect(lock-held-across-switch): held across call to 'ParkUntilCqe'
  SqUnlock();
}
#endif
