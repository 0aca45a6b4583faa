/**
 * @file
 * The serve layer, measured at the end of the traced design_sweep run.
 * An in-process serve::Server with one worker answers the sweep's design
 * points over the socket protocol, one request at a time: each point
 * once (the first captures cold, the rest replay warm from its live-point
 * store), then kRepeats more times (result-cache hits, three quarters of
 * the mix). Every reply must equal the library result for its request.
 * The frame codec is then timed on the same frames, and the cache, reuse
 * and shed ratios are read from Server::stats().
 */

#include <cstdio>
#include <map>
#include <thread>

#include "bench.hh"
#include "harness/json.hh"
#include "serve/daemon.hh"
#include "serve/net_io.hh"
#include "util/checksum.hh"
#include "util/deadline.hh"
#include "util/error.hh"

namespace perfbench
{

namespace
{

using namespace rsr;
using Scope = SpanRecorder::Scope;

constexpr int kRepeats = 3;
// Codec timing: the median over rounds, each kCodecReps passes over the
// mix's request and reply frames.
constexpr int kCodecRounds = 50;
constexpr int kCodecReps = 20;

/** A serve::Server answering on a loopback port from its own thread,
 *  drained and joined when it leaves scope. */
class RunningServer
{
  public:
    explicit RunningServer(serve::ServeConfig config)
        : server(std::move(config))
    {
        server.start();
        loop = std::thread([this] { server.serve(); });
    }

    ~RunningServer()
    {
        server.requestDrain();
        loop.join();
    }

    RunningServer(const RunningServer &) = delete;
    RunningServer &operator=(const RunningServer &) = delete;

    serve::Server server;

  private:
    std::thread loop;
};

/** One request/response exchange over a fresh connection. */
serve::Frame
exchange(std::uint16_t port, const serve::Frame &frame)
{
    const Deadline deadline(60.0);
    serve::Socket conn = serve::connectTo(port, deadline);
    serve::sendFrame(conn.fd(), frame, deadline);
    serve::Frame reply;
    if (!serve::recvFrame(conn.fd(), deadline, reply))
        rsr_throw_io("the server closed the connection without a reply");
    return reply;
}

serve::Frame
requestFrame(const serve::SimRequest &request, std::uint64_t id)
{
    serve::Frame frame;
    frame.type = serve::FrameType::SimRequest;
    frame.requestId = id;
    frame.payload = serve::encodeSimRequest(request);
    return frame;
}

/** The fields of a first (uncached) reply that the library result fixes:
 *  all but the host seconds. */
std::map<std::string, std::string>
expectedReply(const ServePoint &p, bool warm)
{
    const core::SampledResult &r = p.expected;
    harness::JsonWriter w;
    w.put("request_hash", checksumHex(p.request.requestHash()))
        .put("workload", p.request.workload)
        .put("policy", p.request.policy)
        .put("ipc", r.estimate.mean)
        .put("ci_low", r.estimate.ciLow)
        .put("ci_high", r.estimate.ciHigh)
        .put("aggregate_ipc", r.aggregateIpc())
        .put("clusters",
             static_cast<std::uint64_t>(r.clusterIpc.size()))
        .putBool("warm", warm)
        .putBool("cached", false);
    return harness::parseJsonObject(w.str());
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

} // namespace

void
measureServe(Context &ctx, const std::vector<ServePoint> &points)
{
    // The mix, in sending order: request frames, the point each asks
    // for, and the replies.
    std::vector<serve::Frame> sent, replies;
    std::vector<std::size_t> asked;
    serve::ServeStats stats;
    {
        serve::ServeConfig config;
        config.threads = 1;
        RunningServer rs(std::move(config));
        std::vector<std::map<std::string, std::string>> first(points.size());
        std::uint64_t id = 0;
        for (int pass = 0; pass <= kRepeats; ++pass) {
            for (std::size_t i = 0; i < points.size(); ++i) {
                const std::string key = "serve/point" + std::to_string(i);
                ctx.book.attempt();
                try {
                    const serve::Frame frame =
                        requestFrame(points[i].request, ++id);
                    const serve::Frame reply =
                        exchange(rs.server.port(), frame);
                    if (reply.type != serve::FrameType::SimResponse ||
                        reply.requestId != frame.requestId) {
                        ctx.book.fail(key + ": " +
                                      serve::frameTypeName(reply.type) +
                                      " reply: " + reply.payloadText());
                        continue;
                    }
                    sent.push_back(frame);
                    replies.push_back(reply);
                    asked.push_back(i);
                    auto got = harness::parseJsonObject(reply.payloadText());
                    std::map<std::string, std::string> want;
                    if (pass == 0) {
                        want = expectedReply(points[i], i > 0);
                        want["seconds"] = got["seconds"];
                        first[i] = got;
                    } else {
                        want = first[i];
                        want["cached"] = "true";
                    }
                    if (got != want) {
                        std::string diff;
                        for (const auto &[k, v] : want)
                            if (got[k] != v)
                                diff += " " + k + "=" + got[k] +
                                        " (library " + v + ")";
                        ctx.book.fail(key + ": the reply differs from "
                                      "the library result:" + diff);
                    }
                } catch (const SimError &e) {
                    ctx.book.fail(key + ": " + e.what());
                }
            }
        }
        stats = rs.server.stats();
    }

    // Round trips of the mix's frames, checked once outside the timing.
    std::vector<std::vector<std::uint8_t>> sent_bytes, reply_bytes;
    std::uint64_t want_sink = 0;
    for (std::size_t j = 0; j < sent.size(); ++j) {
        sent_bytes.push_back(serve::encodeFrame(sent[j]));
        reply_bytes.push_back(serve::encodeFrame(replies[j]));
        const serve::Frame f = serve::decodeFrame(sent_bytes[j]);
        const serve::SimRequest r = serve::decodeSimRequest(f.payload);
        const serve::Frame g = serve::decodeFrame(reply_bytes[j]);
        const serve::SimRequest &orig = points[asked[j]].request;
        if (f.requestId != sent[j].requestId ||
            f.payload != sent[j].payload ||
            serve::simRequestJson(r) != serve::simRequestJson(orig) ||
            g.type != replies[j].type || g.payload != replies[j].payload)
            ctx.book.fail("serve codec: a frame does not round-trip");
        want_sink += sent_bytes[j].size() + reply_bytes[j].size() +
                     r.insts + g.payload.size();
    }

    std::vector<double> encode_us, decode_us;
    const double calls =
        static_cast<double>(kCodecReps * (sent.size() + replies.size()));
    for (int round = 0; round < kCodecRounds && !sent.empty(); ++round) {
        const std::uint32_t op = ctx.spans->beginOp();
        std::uint64_t encoded = 0, decoded = 0;
        {
            Scope s(*ctx.spans, "serve.encode");
            for (int rep = 0; rep < kCodecReps; ++rep) {
                for (std::size_t j = 0; j < sent.size(); ++j) {
                    encoded += serve::encodeFrame(
                                   requestFrame(points[asked[j]].request,
                                                sent[j].requestId))
                                   .size();
                    encoded += serve::encodeFrame(replies[j]).size();
                }
            }
        }
        {
            Scope s(*ctx.spans, "serve.decode");
            for (int rep = 0; rep < kCodecReps; ++rep) {
                for (std::size_t j = 0; j < sent.size(); ++j) {
                    decoded += serve::decodeSimRequest(
                                   serve::decodeFrame(sent_bytes[j]).payload)
                                   .insts;
                    decoded += serve::decodeFrame(reply_bytes[j])
                                   .payload.size();
                }
            }
        }
        // Also keeps the timed loops from being optimised away.
        if (encoded + decoded != kCodecReps * want_sink)
            ctx.book.fail("serve codec: timed passes disagree");
        const auto self = ctx.spans->selfSeconds(op);
        encode_us.push_back(self.at("serve.encode") / calls * 1e6);
        decode_us.push_back(self.at("serve.decode") / calls * 1e6);
    }

    const std::uint64_t shed =
        stats.shedBusy + stats.shedOverload + stats.shedDraining;
    Metrics &m = ctx.metrics;
    m["serve.frame_encode_us"] = median(encode_us);
    m["serve.frame_decode_us"] = median(decode_us);
    m["serve.result_cache_hit_ratio"] =
        ratio(stats.cacheHits, stats.completed);
    m["serve.store_reuse_ratio"] =
        ratio(stats.warmReplays, stats.warmReplays + stats.coldCaptures);
    m["serve.shed_ratio"] = ratio(shed, stats.completed + shed);
    std::printf("serve: %llu requests  hits %llu  warm %llu  cold %llu  "
                "shed %llu  encode %.3f us  decode %.3f us per frame\n",
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.cacheHits),
                static_cast<unsigned long long>(stats.warmReplays),
                static_cast<unsigned long long>(stats.coldCaptures),
                static_cast<unsigned long long>(shed),
                m["serve.frame_encode_us"], m["serve.frame_decode_us"]);
}

} // namespace perfbench
