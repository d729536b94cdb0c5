// Unit tests for the polling message layer: bins, poll flags, reply slots,
// sequencing, cross-unit concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "cashmere/msg/message_layer.hpp"

namespace cashmere {
namespace {

Config MsgConfig(int nodes, int ppn) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.procs_per_node = ppn;
  cfg.heap_bytes = 4 * kPageBytes;
  return cfg;
}

class RecordingHandler : public RequestHandler {
 public:
  void HandleRequest(const Request& request) override {
    std::lock_guard<std::mutex> guard(mu_);
    requests_.push_back(request);
  }
  std::vector<Request> Take() {
    std::lock_guard<std::mutex> guard(mu_);
    return requests_;
  }

 private:
  std::mutex mu_;
  std::vector<Request> requests_;
};

TEST(MessageLayerTest, SendRaisesPendingAndPollDrains) {
  Config cfg = MsgConfig(2, 2);
  MessageLayer msg(cfg);
  RecordingHandler handler;
  msg.set_handler(&handler);

  Request request;
  request.kind = Request::Kind::kPageFetch;
  request.page = 7;
  const std::uint64_t seq = msg.Send(/*from=*/0, /*dst_unit=*/1, request);
  EXPECT_EQ(seq, 1u);
  EXPECT_TRUE(msg.HasPending(1));
  EXPECT_FALSE(msg.HasPending(0));
  EXPECT_EQ(msg.Poll(1), 1);
  EXPECT_FALSE(msg.HasPending(1));
  const auto got = handler.Take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].page, 7u);
  EXPECT_EQ(got[0].from_proc, 0);
  EXPECT_EQ(got[0].seq, 1u);
}

TEST(MessageLayerTest, SequenceNumbersArePerProcessor) {
  Config cfg = MsgConfig(2, 2);
  MessageLayer msg(cfg);
  RecordingHandler handler;
  msg.set_handler(&handler);
  Request request;
  EXPECT_EQ(msg.Send(0, 1, request), 1u);
  EXPECT_EQ(msg.Send(0, 1, request), 2u);
  EXPECT_EQ(msg.Send(1, 1, request), 1u);  // different processor
  msg.Poll(1);
}

TEST(MessageLayerTest, CompleteSignalsReplySlot) {
  Config cfg = MsgConfig(2, 1);
  MessageLayer msg(cfg);
  ReplySlot& slot = msg.SlotOf(1);
  EXPECT_EQ(slot.done_seq.load(), 0u);
  msg.Complete(/*requester=*/1, /*seq=*/5, kReplyHasPage, /*responder_vt=*/12345);
  EXPECT_EQ(slot.done_seq.load(), 5u);
  EXPECT_EQ(slot.flags, kReplyHasPage);
  EXPECT_EQ(slot.responder_vt, 12345u);
}

TEST(MessageLayerTest, RequestsFromMultipleSourcesAllArrive) {
  Config cfg = MsgConfig(4, 2);  // 4 units
  MessageLayer msg(cfg);
  RecordingHandler handler;
  msg.set_handler(&handler);
  for (ProcId p = 2; p < 8; ++p) {  // procs of units 1..3 send to unit 0
    Request request;
    request.page = static_cast<PageId>(p);
    msg.Send(p, 0, request);
  }
  int handled = 0;
  while (msg.HasPending(0)) {
    handled += msg.Poll(0);
  }
  EXPECT_EQ(handled, 6);
  EXPECT_EQ(handler.Take().size(), 6u);
}

// The bins are sized to one outstanding request per source processor: a
// requester waits for its reply before it sends again. Every processor of
// one unit sending to the same destination before anyone polls is the
// fullest a bin can get, and no Send may wait for space.
TEST(MessageLayerTest, FullSourceUnitFitsOneBinWithoutBlocking) {
  Config cfg = MsgConfig(2, kMaxProcsPerNode);
  ASSERT_EQ(cfg.procs_per_unit(), kMaxProcsPerNode);
  MessageLayer msg(cfg);
  RecordingHandler handler;
  msg.set_handler(&handler);
  std::atomic<int> sent{0};
  std::vector<std::thread> senders;
  for (ProcId p = 0; p < kMaxProcsPerNode; ++p) {  // all of unit 0 -> unit 1
    senders.emplace_back([&, p] {
      Request request;
      request.page = static_cast<PageId>(p);
      msg.Send(p, 1, request);
      sent.fetch_add(1);
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sent.load() < kMaxProcsPerNode && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const int sent_before_poll = sent.load();
  int handled = 0;
  while (sent.load() < kMaxProcsPerNode || msg.HasPending(1)) {
    handled += msg.Poll(1);  // frees any sender stuck on a full bin
  }
  for (auto& t : senders) {
    t.join();
  }
  EXPECT_EQ(sent_before_poll, kMaxProcsPerNode);
  EXPECT_EQ(handled, kMaxProcsPerNode);
  std::vector<bool> seen(kMaxProcsPerNode, false);
  for (const Request& r : handler.Take()) {
    ASSERT_GE(r.from_proc, 0);
    ASSERT_LT(r.from_proc, kMaxProcsPerNode);
    EXPECT_EQ(r.page, static_cast<PageId>(r.from_proc));
    seen[static_cast<std::size_t>(r.from_proc)] = true;
  }
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
}

TEST(MessageLayerTest, ConcurrentSendersDoNotLoseRequests) {
  Config cfg = MsgConfig(8, 4);
  MessageLayer msg(cfg);
  RecordingHandler handler;
  msg.set_handler(&handler);
  constexpr int kPerSender = 200;
  std::vector<std::thread> senders;
  for (ProcId p = 4; p < 12; ++p) {  // two units' worth of senders
    senders.emplace_back([&, p] {
      for (int i = 0; i < kPerSender; ++i) {
        Request request;
        request.page = static_cast<PageId>(i);
        msg.Send(p, 0, request);
      }
    });
  }
  std::atomic<int> drained{0};
  std::thread poller([&] {
    while (drained.load() < 8 * kPerSender) {
      drained.fetch_add(msg.Poll(0));
    }
  });
  for (auto& t : senders) {
    t.join();
  }
  poller.join();
  EXPECT_EQ(drained.load(), 8 * kPerSender);
  EXPECT_GE(msg.heartbeat(), static_cast<std::uint64_t>(8 * kPerSender));
}

TEST(MessageLayerTest, PollFromWrongUnitFindsNothing) {
  Config cfg = MsgConfig(4, 1);
  MessageLayer msg(cfg);
  RecordingHandler handler;
  msg.set_handler(&handler);
  Request request;
  msg.Send(0, 2, request);
  EXPECT_EQ(msg.Poll(1), 0);
  EXPECT_EQ(msg.Poll(3), 0);
  EXPECT_EQ(msg.Poll(2), 1);
}

}  // namespace
}  // namespace cashmere
