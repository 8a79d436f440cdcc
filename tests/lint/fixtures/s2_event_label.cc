// shrimp_lint fixture: S2 event-label lifetime. The queue stores the
// label pointer; anything built from a temporary dangles. Never
// compiled.
#include <string>

struct Queue
{
    void schedule(long when, const char *name, int fn);
    void scheduleIn(long delay, const char *name, int fn);
};

void
post(Queue &q, const std::string &base, int node)
{
    q.schedule(1, "ok.literal", 0); // clean: string literal

    q.schedule(1, base.c_str(), 0); // S2 @ line 17

    q.scheduleIn(2, (base + ".suffix").c_str(), 0); // S2 @ line 19

    q.schedule(3, std::string("tmp").c_str(), 0); // S2 @ line 21

    q.schedule(4, ("node" + std::to_string(node)).c_str(), 0); // S2 @ line 23
}

void
staticLabelIsFine(Queue &q)
{
    static const char *kLabel = "ok.static";
    q.schedule(1, kLabel, 0); // clean: static storage duration
}

struct StampedQueue
{
    void scheduleStamped(long when, long stamp, const char *name, int fn);
};
struct Router
{
    void post(int src, int dst, long when, const char *name, int fn, int p);
};

void
otherEntryPoints(StampedQueue &q, Router &r, const std::string &b)
{
    q.scheduleStamped(1, 7, "ok.literal", 0); // clean: string literal
    r.post(0, 1, 2, "ok.literal", 0, 0);      // clean: string literal

    q.scheduleStamped(1, 7, b.c_str(), 0); // S2 @ line 48

    r.post(0, 1, 2, (b + ".fwd").c_str(), 0, 0); // S2 @ line 50
}
