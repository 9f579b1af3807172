#include "futex/futex.h"

#include <gtest/gtest.h>

#include "kern/kernel.h"

namespace eo::futex {
namespace {

class FutexTableTest : public ::testing::Test {
 protected:
  kern::KernelConfig cfg_;
  kern::Kernel k_{cfg_};  // used only as a SimWord/Task factory
  FutexTable table_{16};
};

TEST_F(FutexTableTest, BucketStableForWord) {
  auto* w = k_.alloc_word(0);
  EXPECT_EQ(&table_.bucket_for(w), &table_.bucket_for(w));
}

TEST_F(FutexTableTest, WordsSpreadAcrossBuckets) {
  // Not all words may hash to one bucket.
  std::set<Bucket*> seen;
  for (int i = 0; i < 64; ++i) {
    seen.insert(&table_.bucket_for(k_.alloc_word(0)));
  }
  EXPECT_GT(seen.size(), 4u);
}

TEST_F(FutexTableTest, RemoveFindsWaiter) {
  auto* w = k_.alloc_word(0);
  kern::Task* t1 = k_.create_task("t1");
  kern::Task* t2 = k_.create_task("t2");
  auto& b = table_.bucket_for(w);
  t2->waiter.vb = true;
  b.waiters.push_back(&t1->waiter);
  b.waiters.push_back(&t2->waiter);
  EXPECT_EQ(b.waiters.size(), 2u);
  b.waiters.erase(&t1->waiter);
  EXPECT_TRUE(WaiterList::detached(&t1->waiter));
  EXPECT_FALSE(WaiterList::detached(&t2->waiter));
  EXPECT_EQ(b.waiters.size(), 1u);
  EXPECT_EQ(b.waiters.front()->task, t2);
  EXPECT_TRUE(b.waiters.front()->vb);
}

TEST_F(FutexTableTest, FifoOrderPreserved) {
  auto* w = k_.alloc_word(0);
  auto& b = table_.bucket_for(w);
  std::vector<kern::Task*> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back(k_.create_task("t" + std::to_string(i)));
    b.waiters.push_back(&tasks.back()->waiter);
  }
  std::size_t i = 0;
  for (const WaiterLink* l = b.waiters.begin_link(); l != b.waiters.end_link();
       l = l->next) {
    ASSERT_LT(i, tasks.size());
    EXPECT_EQ(l->task, tasks[i++]);
  }
  EXPECT_EQ(i, 5u);
}

TEST_F(FutexTableTest, PopFrontDetachesInFifoOrder) {
  auto* w = k_.alloc_word(0);
  auto& b = table_.bucket_for(w);
  kern::Task* t1 = k_.create_task("t1");
  kern::Task* t2 = k_.create_task("t2");
  b.waiters.push_back(&t1->waiter);
  b.waiters.push_back(&t2->waiter);
  EXPECT_EQ(b.waiters.pop_front()->task, t1);
  EXPECT_TRUE(WaiterList::detached(&t1->waiter));
  EXPECT_EQ(b.waiters.pop_front()->task, t2);
  EXPECT_TRUE(b.waiters.empty());
  // A detached link may be re-enqueued (tasks block repeatedly).
  b.waiters.push_back(&t1->waiter);
  EXPECT_EQ(b.waiters.size(), 1u);
}

}  // namespace
}  // namespace eo::futex
